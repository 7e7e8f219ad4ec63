(* scsbench: the repository benchmark.

   Without --workload it runs the whole suite: [repeats] untraced runs of
   every workload, interleaved round-robin with seeds seed..seed+repeats-1,
   then one traced run per workload. With --workload it makes one run of
   one workload, untraced (--trace 0, end-to-end metrics) or traced
   (--trace 1, per-layer metrics), and prints a JSON summary as its last
   line. Either way it prints every metric as [workload metric value
   unit] and exits non-zero if any output check fails. *)

open Scs_util
module W = Workloads
module E = Engine
module T = Tracer

type better = Higher | Lower

type metric = { name : string; unit_ : string; better : better; bound : float option }

let m name unit_ better bound = { name; unit_; better; bound }

(* The end-to-end metrics and the regression bounds BENCHMARK.json fixes.
   Times get the widest bound allowed: on a 2-vCPU virtual machine the
   host's speed swings up to 2x over seconds (README.md, "Noise on the
   measurement host"). *)
let end_to_end =
  [
    m "ops_per_s" "ops/s" Higher (Some 0.25);
    m "p50_us" "us" Lower (Some 0.25);
    m "p95_us" "us" Lower (Some 0.25);
    m "setup_s" "s" Lower (Some 0.25);
    m "rss_peak_mb" "MB" Lower (Some 0.10);
  ]

let per_layer =
  List.map
    (fun (name, unit_, better) -> m name unit_ better None)
    [
      ("arena.rebuild_ms", "ms", Lower);
      ("arena.recycles_per_kop", "1/kop", Lower);
      ("arena.stall_share", "ratio", Lower);
      ("arena.alloc_mwords", "Mwords", Lower);
      ("split.calls_per_op", "count/op", Lower);
      ("split.us_per_op", "us", Lower);
      ("split.abort_share", "ratio", Lower);
      ("bakery.calls_per_op", "count/op", Lower);
      ("bakery.us_per_op", "us", Lower);
      ("bakery.abort_share", "ratio", Lower);
      ("cas.calls_per_op", "count/op", Lower);
      ("cas.us_per_op", "us", Lower);
      ("chain.handoffs_per_kop", "1/kop", Lower);
      ("uc.self_us", "us", Lower);
      ("uc.history_len", "count", Lower);
      ("uc.switches_per_kop", "1/kop", Lower);
      ("uc.transfer_slots_per_switch", "count", Lower);
      ("uc.transfer_us_per_switch", "us", Lower);
      ("uc.probes_per_abort", "count", Lower);
      ("spec.applies_per_op", "count/op", Lower);
      ("svc.self_us", "us", Lower);
      ("snapshot.reads_per_op", "count/op", Lower);
      ("snapshot.writes_per_op", "count/op", Lower);
      ("batcher.batch_size", "count", Higher);
      ("batcher.combined_share", "ratio", Higher);
      ("batcher.polls_per_op", "count/op", Lower);
      ("batcher.cas_fails_per_op", "count/op", Lower);
      ("batcher.lock_fails_per_op", "count/op", Lower);
      ("router.reads_per_op", "count/op", Lower);
      ("router.writes_per_kop", "1/kop", Lower);
      ("router.give_ups_per_kop", "1/kop", Lower);
      ("migration.ms", "ms", Lower);
      ("migration.per_kop", "1/kop", Lower);
      ("steps.reads_per_op", "count/op", Lower);
      ("steps.writes_per_op", "count/op", Lower);
      ("steps.rmw_per_op", "count/op", Lower);
      ("gc.minor_words_per_op", "words/op", Lower);
      ("gc.pause_share", "ratio", Lower);
      ("trace.overhead", "ratio", Lower);
      ("check.ops", "count", Higher);
      ("check.violations", "count", Lower);
    ]

(* Printed and recorded, but without a bound: the run-to-run spread of
   p99 reached 0.31 over ten seeds, beyond the largest bound allowed. *)
let p99 = m "p99_us" "us" Lower None
let info = [ p99; m "failed_share" "ratio" Lower None ]

let metric_unit name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer @ info) with
  | Some x -> x.unit_
  | None -> "ratio"

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else begin
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
  end

(* ------------------------------------------------------------------ *)
(* One run of one workload.                                            *)

let build_seconds cfg =
  let t0 = T.now () in
  ignore (Sys.opaque_identity (W.create ~traced:false cfg));
  float_of_int (T.now () - t0) /. 1e9

(* One timed build of the first arena, handles included, made by a
   fresh process of this program: every sample starts from an empty heap,
   as a run does, and the measured process's memory is left alone. *)
let time_setup cfg =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--setup-once"; cfg.W.name |] in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some t -> t
  | _ -> failwith ("scsbench: set-up sample failed: " ^ out)

let segment ?between cfg ~seed ~traced ~seconds ~windows =
  Gc.compact ();
  let r =
    E.run ?between ~cfg ~seed ~traced ~warmup_s:(Float.min 1.0 (seconds /. 6.0)) ~windows
      ~window_s:(seconds /. float_of_int windows)
      ~record_all:traced ()
  in
  (r, Check.run cfg r.E.records)

(* End-to-end values of one window. *)
let window_values (w : E.window) =
  [
    ("ops_per_s", float_of_int w.E.ops /. w.E.dur_s);
    ("p50_us", E.Hist.quantile w.E.hist 0.50 /. 1e3);
    ("p95_us", E.Hist.quantile w.E.hist 0.95 /. 1e3);
    ("p99_us", E.Hist.quantile w.E.hist 0.99 /. 1e3);
    ("rss_peak_mb", float_of_int w.E.rss_peak_bytes /. 1e6);
  ]

let failed (r : E.result) = r.E.failed_capacity + r.E.failed_other

let layer_values (cfg : W.cfg) (r : E.result) ~overhead ~(check : Check.result) =
  let t = r.E.tracer in
  let ops = float_of_int (max 1 t.T.nspans.(T.l_op)) in
  let kops = ops /. 1e3 in
  let ev e = float_of_int t.T.ev.(e) in
  let cnt tag kind = float_of_int (T.get_count t tag kind) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let us_per_op ns = float_of_int ns /. ops /. 1e3 in
  let switches = cnt T.t_uc_aborted T.k_write in
  let stage s name =
    [
      (name ^ ".calls_per_op", ev (T.e_calls + s) /. ops);
      (name ^ ".us_per_op", us_per_op t.T.span_ns.(T.l_split + s));
    ]
    @
    if s < 2 then [ (name ^ ".abort_share", ratio (ev (T.e_aborts + s)) (ev (T.e_runs + s))) ]
    else []
  in
  [
    ("arena.rebuild_ms", ratio (ev T.e_rebuild_ns) (ev T.e_rebuilds) /. 1e6);
    ("arena.recycles_per_kop", ev T.e_rebuilds /. kops);
    ( "arena.stall_share",
      ratio (float_of_int t.T.self_ns.(T.l_arena)) (float_of_int t.T.span_ns.(T.l_op)) );
    ("arena.alloc_mwords", ratio (ev T.e_rebuild_words) (ev T.e_rebuilds) /. 1e6);
  ]
  @ stage 0 "split" @ stage 1 "bakery" @ stage 2 "cas"
  @ [
      ("chain.handoffs_per_kop", ev T.e_handoffs /. kops);
      ("uc.self_us", us_per_op t.T.self_ns.(T.l_uc));
      ("uc.history_len", ev T.e_hist_len /. ops);
      ("uc.switches_per_kop", switches /. kops);
      ("uc.transfer_slots_per_switch", ratio (ev T.e_inits) switches);
      ("uc.transfer_us_per_switch", ratio (ev T.e_transfer_ns) switches /. 1e3);
      ("uc.probes_per_abort", ratio (ev T.e_probes) switches);
      ("spec.applies_per_op", ev T.e_applies /. ops);
      ("svc.self_us", us_per_op t.T.self_ns.(T.l_svc));
      ("snapshot.reads_per_op", cnt T.t_snapshot T.k_read /. ops);
      ("snapshot.writes_per_op", cnt T.t_snapshot T.k_write /. ops);
      ("batcher.batch_size", ratio (float_of_int r.E.batched) (float_of_int r.E.batches));
      ("batcher.combined_share", ratio (ev T.e_foreign_cell) (cnt T.t_cell T.k_write));
      ("batcher.polls_per_op", cnt T.t_cell T.k_read /. ops);
      ("batcher.cas_fails_per_op", cnt T.t_queue T.k_rmw_fail /. ops);
      ("batcher.lock_fails_per_op", cnt T.t_lock T.k_rmw_fail /. ops);
      ("router.reads_per_op", cnt T.t_router T.k_read /. ops);
      ("router.writes_per_kop", cnt T.t_router T.k_write /. kops);
      ("router.give_ups_per_kop", ev T.e_give_ups /. kops);
      ("migration.ms", ratio (ev T.e_migration_ns) (ev T.e_migrations) /. 1e6);
      ("migration.per_kop", ev T.e_migrations /. kops);
      ("steps.reads_per_op", float_of_int (T.total_kind t T.k_read) /. ops);
      ("steps.writes_per_op", float_of_int (T.total_kind t T.k_write) /. ops);
      ("steps.rmw_per_op", float_of_int (T.total_kind t T.k_rmw) /. ops);
      ("gc.minor_words_per_op", r.E.minor_words /. ops);
      ( "gc.pause_share",
        float_of_int r.E.gc_ns /. (float_of_int cfg.W.domains *. r.E.measured_s *. 1e9) );
      ("trace.overhead", overhead);
      ("check.ops", float_of_int check.Check.ops);
      ("check.violations", float_of_int check.Check.violations);
    ]

(* Self time per op of every layer; they sum to the op span. *)
let self_table (r : E.result) =
  let t = r.E.tracer in
  let ops = float_of_int (max 1 t.T.nspans.(T.l_op)) in
  Array.to_list
    (Array.mapi (fun l name -> (name, float_of_int t.T.self_ns.(l) /. ops /. 1e3)) T.layer_names)
  @ [ ("op_span", float_of_int t.T.span_ns.(T.l_op) /. ops /. 1e3) ]

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

let printed : (string * string, float) Hashtbl.t = Hashtbl.create 256

let print_metric ?(note = "") wl name v =
  Hashtbl.replace printed (wl, name) v;
  Printf.printf "%s %s %.6g %s%s\n%!" wl name v (metric_unit name)
    (if note = "" then "" else " " ^ note)

let spread values =
  let q1, q3 = quartiles values and med = median values in
  if med <> 0.0 then (q3 -. q1) /. Float.abs med else 0.0

(* An end-to-end metric whose spread exceeds its bound cannot show a
   regression of that size: it prints as unresolved. *)
let unresolved name values =
  match List.find_opt (fun x -> x.name = name) end_to_end with
  | Some { bound = Some b; _ } -> spread values > b
  | _ -> false

let stats values =
  let q1, q3 = quartiles values in
  [
    ("median", Json.Float (median values));
    ("q1", Json.Float q1);
    ("q3", Json.Float q3);
    ("iqr_share", Json.Float (spread values));
    ("values", Json.List (List.map (fun v -> Json.Float v) values));
  ]

let git_revision () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (".git/" ^ r) with
      | Some s -> s
      | None -> (
          let packed = Option.value ~default:"" (read ".git/packed-refs") in
          let hit =
            List.find_opt
              (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = r)
              (String.split_on_char '\n' packed)
          in
          match hit with Some l -> String.sub l 0 40 | None -> "unknown"))
  | Some h -> h
  | None -> "unknown"

let provenance ~seed =
  [
    ("host_cores", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("git_revision", Json.String (git_revision ()));
    ("seed", Json.Int seed);
  ]

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file out name contents =
  mkdir_p out;
  Out_channel.with_open_text (Filename.concat out name) (fun oc -> output_string oc contents)

let write_spans out name (r : E.result) =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "domain\tlayer\tdepth\tstart_ns\tend_ns\n";
  Array.iteri
    (fun d (st : T.st) ->
      for i = 0 to st.T.nlog - 1 do
        let f k = st.T.log.((4 * i) + k) in
        Printf.bprintf b "%d\t%s\t%d\t%d\t%d\n" d T.layer_names.(f 0) (f 1) (f 2) (f 3)
      done)
    r.E.spans;
  write_file out name (Buffer.contents b)

let report_errors wl (r : E.result) =
  List.iteri
    (fun i e -> if i < 5 then Printf.eprintf "%s: op failed: %s\n%!" wl e)
    r.E.errors

let metric_objs pairs =
  let obj (k, v) = (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String (metric_unit k)) ]) in
  Json.Obj (List.map obj pairs)

(* ------------------------------------------------------------------ *)
(* Modes.                                                              *)

type run_summary = { ok : bool; attempted : int; failed : int }

let windows_per_run = 7

(* A run's value of a metric from its samples. A window that falls in a
   slow phase of the host reads slow, so a time metric is the mean of
   the best quarter of the windows (two of seven), which keeps such
   phases out. Resident memory does not depend on speed: the median
   window. Set-up time is the median of its builds. *)
let of_windows x values =
  if x.name = "rss_peak_mb" || x.name = "setup_s" then median values
  else begin
    let best = List.sort (fun a b -> if x.better = Higher then compare b a else compare a b) values in
    let k = max 1 ((List.length values + 3) / 4) in
    List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < k) best) /. float_of_int k
  end

(* One run: the untraced end-to-end metrics over [windows_per_run]
   windows, or the per-layer metrics of a traced run preceded by a
   shorter untraced run for the tracing overhead. *)
let single cfg ~seed ~seconds ~trace ~out =
  let wl = cfg.W.name in
  if not trace then begin
    (* One set-up before the run and one at every window boundary, so
       the builds sample the host across the whole run. *)
    let setups = ref [ time_setup cfg ] in
    let between () = setups := time_setup cfg :: !setups in
    let r, check = segment cfg ~seed ~traced:false ~seconds ~windows:windows_per_run ~between in
    report_errors wl r;
    let per_window = Array.to_list (Array.map window_values r.E.windows) in
    let values name = List.map (List.assoc name) per_window in
    let rows =
      List.map
        (fun x ->
          let vs = if x.name = "setup_s" then List.rev !setups else values x.name in
          (x.name, vs, of_windows x vs))
        (end_to_end @ [ p99 ])
    in
    let n = Array.fold_left (fun a w -> a + w.E.ops) 0 r.E.windows in
    List.iter
      (fun (name, _, v) ->
        let note = if String.ends_with ~suffix:"_us" name then Printf.sprintf "n=%d" n else "" in
        print_metric ~note wl name v)
      rows;
    let attempted = r.E.attempted in
    print_metric wl "failed_share" (float_of_int (failed r) /. float_of_int (max 1 attempted));
    print_metric wl "check.ops" (float_of_int check.Check.ops);
    print_metric wl "check.violations" (float_of_int check.Check.violations);
    write_file out
      (Printf.sprintf "%s-seed%d-trace0.json" wl seed)
      (Json.to_string
         (Json.Obj
            (provenance ~seed
            @ [
                ("workload", W.cfg_json cfg);
                ("seconds", Json.Float seconds);
                ("windows", Json.Int windows_per_run);
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (n, vs, v) -> (n, Json.Obj (("value", Json.Float v) :: stats vs)))
                       rows) );
              ])));
    ( { ok = check.Check.violations = 0 && check.Check.ops > 0; attempted; failed = failed r },
      List.filter_map
        (fun (n, _, v) -> if List.exists (fun x -> x.name = n) end_to_end then Some (n, v) else None)
        rows )
  end
  else begin
    let u, ucheck = segment cfg ~seed ~traced:false ~seconds:(seconds /. 3.0) ~windows:1 in
    let t, tcheck = segment cfg ~seed ~traced:true ~seconds:(seconds *. 2.0 /. 3.0) ~windows:1 in
    report_errors wl u;
    report_errors wl t;
    let ops_s (r : E.result) = float_of_int r.E.windows.(0).E.ops /. r.E.windows.(0).E.dur_s in
    let check =
      {
        Check.ops = ucheck.Check.ops + tcheck.Check.ops;
        violations = ucheck.Check.violations + tcheck.Check.violations;
      }
    in
    let values = layer_values cfg t ~overhead:((ops_s u /. ops_s t) -. 1.0) ~check in
    List.iter (fun (n, v) -> print_metric wl n v) values;
    List.iter (fun (n, v) -> Printf.printf "%s self.%s %.6g us\n" wl n v) (self_table t);
    write_spans out (Printf.sprintf "spans-%s-seed%d.tsv" wl seed) t;
    write_file out
      (Printf.sprintf "%s-seed%d-trace1.json" wl seed)
      (Json.to_string
         (Json.Obj
            (provenance ~seed
            @ [
                ("workload", W.cfg_json cfg);
                ("seconds", Json.Float seconds);
                ("per_layer", metric_objs values);
                ("self_us_per_op", metric_objs (self_table t));
              ])));
    ( {
        ok = check.Check.violations = 0 && check.Check.ops > 0;
        attempted = u.E.attempted + t.E.attempted;
        failed = failed u + failed t;
      },
      values )
  end

(* One run of this program as a child process, so that every run starts
   from a fresh heap, exactly as a run of BENCHMARK.json's command does. *)
type child = {
  c_ok : bool;
  c_attempted : int;
  c_failed : int;
  c_metrics : (string * float) list;
  c_lines : string list;
}

let child ~wl ~seed ~seconds ~trace ~out =
  let args =
    [|
      Sys.executable_name; "--workload"; wl; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0");
      "--out"; out;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (In_channel.input_all ic)) in
  let status = Unix.close_process_in ic in
  let failed = { c_ok = false; c_attempted = 0; c_failed = 0; c_metrics = []; c_lines = lines } in
  match List.rev lines with
  | last :: _ -> (
      match Json.of_string last with
      | Ok j ->
          let int k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int) in
          let metrics =
            match Json.member "metrics" j with
            | Some (Json.Obj kv) ->
                List.filter_map
                  (fun (k, v) ->
                    Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float))
                  kv
            | _ -> []
          in
          {
            c_ok = status = Unix.WEXITED 0 && Json.member "correct" j = Some (Json.Bool true);
            c_attempted = int "attempted";
            c_failed = int "failed";
            c_metrics = metrics;
            c_lines = lines;
          }
      | Error _ -> failed)
  | [] -> failed

(* The whole suite: [repeats] untraced rounds over every workload,
   interleaved round-robin with seeds seed..seed+repeats-1 so host-noise
   phases spread across workloads, then one traced run per workload. *)
let suite ~seed ~seconds ~repeats ~out =
  let runs =
    List.concat
      (List.init repeats (fun i ->
           List.map
             (fun cfg -> (cfg.W.name, child ~wl:cfg.W.name ~seed:(seed + i) ~seconds ~trace:false ~out))
             W.all))
  in
  let results =
    List.map
      (fun cfg ->
        let wl = cfg.W.name in
        let mine = List.filter_map (fun (w, c) -> if w = wl then Some c else None) runs in
        let t = child ~wl ~seed ~seconds ~trace:true ~out in
        let e2e =
          List.map
            (fun x ->
              let vs = List.filter_map (fun c -> List.assoc_opt x.name c.c_metrics) mine in
              let note = if unresolved x.name vs then "unresolved" else "" in
              print_metric ~note wl x.name (median vs);
              (x.name, Json.Obj (stats vs)))
            end_to_end
        in
        let sum f = List.fold_left (fun a c -> a + f c) 0 (t :: mine) in
        let failed_share =
          float_of_int (sum (fun c -> c.c_failed)) /. float_of_int (max 1 (sum (fun c -> c.c_attempted)))
        in
        print_metric wl "failed_share" failed_share;
        List.iter (fun (n, v) -> print_metric wl n v) t.c_metrics;
        let self =
          List.filter_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ w; name; v; _ ] when w = wl && String.starts_with ~prefix:"self." name ->
                  print_endline l;
                  Some (String.sub name 5 (String.length name - 5), float_of_string v)
              | _ -> None)
            t.c_lines
        in
        ( List.for_all (fun c -> c.c_ok && c.c_failed = 0) (t :: mine),
          ( wl,
            Json.Obj
              [
                ("config", W.cfg_json cfg);
                ("end_to_end", Json.Obj e2e);
                ("failed_share", Json.Float failed_share);
                ("per_layer", metric_objs t.c_metrics);
                ("self_us_per_op", metric_objs self);
              ] ) ))
      W.all
  in
  write_file out "results.json"
    (Json.to_string
       (Json.Obj
          (provenance ~seed
          @ [
              ("seconds", Json.Float seconds);
              ("repeats", Json.Int repeats);
              ("workloads", Json.Obj (List.map snd results));
            ])));
  List.for_all fst results

(* Every metric BENCHMARK.json names must match this program's table
   and have been printed, finite, for every workload. *)
let check_manifest file =
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  (match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
  | Error e -> fail "%s: %s" file e
  | Ok j ->
      let entries key table =
        let listed = Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list) in
        if List.length listed <> List.length table then
          fail "%s: %d entries, expected %d" key (List.length listed) (List.length table);
        List.iter
          (fun e ->
            let str k = Option.value ~default:"" (Option.bind (Json.member k e) Json.to_stringv) in
            let name = str "name" in
            (match List.find_opt (fun x -> x.name = name) table with
            | None -> fail "%s: unknown metric %s" key name
            | Some x ->
                if str "unit" <> x.unit_ then fail "%s: unit of %s" key name;
                if str "better" <> (match x.better with Higher -> "higher" | Lower -> "lower") then
                  fail "%s: better of %s" key name;
                if Option.bind (Json.member "bound" e) Json.to_float <> x.bound then
                  fail "%s: bound of %s" key name);
            List.iter
              (fun cfg ->
                match Hashtbl.find_opt printed (cfg.W.name, name) with
                | Some v when Float.is_finite v -> ()
                | _ -> fail "%s: %s not printed with a finite value" cfg.W.name name)
              W.all)
          listed
      in
      entries "end_to_end" end_to_end;
      entries "per_layer" per_layer;
      let names = Option.value ~default:[] (Option.bind (Json.member "workloads" j) Json.to_list) in
      let names = List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.to_stringv) names in
      if names <> List.map (fun c -> c.W.name) W.all then
        fail "workloads differ from the program's");
  List.iter (Printf.eprintf "manifest: %s\n") (List.rev !bad);
  !bad = []

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 6.0 and trace = ref 0 in
  let repeats = ref 5 and out = ref "benchmark/out" and manifest = ref "" and setup_once = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one run of one workload (default: the suite)");
      ("--seed", Arg.Set_int seed, "N seed of the generated ops (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds of a run (default 6)");
      ("--trace", Arg.Set_int trace, "0|1 with --workload: untraced or traced run");
      ("--repeats", Arg.Set_int repeats, "R suite: untraced rounds (default 5)");
      ("--out", Arg.Set_string out, "DIR results and span files (default benchmark/out)");
      ("--manifest", Arg.Set_string manifest, "FILE suite: check the metrics against BENCHMARK.json");
      ("--setup-once", Arg.Set_string setup_once, "NAME time one build of the workload's first arena");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "scsbench [--workload NAME --seed N --seconds S --trace 0|1]";
  if !seconds <= 0.0 || !repeats < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "scsbench: --seconds must be positive, --repeats at least 1, --trace 0 or 1";
    exit 2
  end;
  let find name =
    match W.find name with
    | Some cfg -> cfg
    | None ->
        Printf.eprintf "scsbench: unknown workload %s (known: %s)\n" name
          (String.concat ", " (List.map (fun c -> c.W.name) W.all));
        exit 2
  in
  if !setup_once <> "" then Printf.printf "%.9f\n" (build_seconds (find !setup_once))
  else if !workload = "" then begin
    let ok = suite ~seed:!seed ~seconds:!seconds ~repeats:!repeats ~out:!out in
    let ok = ok && (!manifest = "" || check_manifest !manifest) in
    exit (if ok then 0 else 1)
  end
  else begin
    let cfg = find !workload in
    let s, values = single cfg ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out in
    print_endline
      (Json.to_string ~indent:false
         (Json.Obj
            [
              ("correct", Json.Bool s.ok);
              ("attempted", Json.Int s.attempted);
              ("failed", Json.Int s.failed);
              ("metrics", metric_objs values);
            ]));
    exit (if s.ok && s.failed = 0 then 0 else 1)
  end
