(* Emit the bench trajectory for this PR: a validated JSON file
   (schema scs.bench.trajectory/1, see docs/metrics.md) with one record
   per (workload, n) cell, measured by the obs sink via Obs_run.

   Usage:
     dune exec bench/emit_json.exe -- [-o FILE] [--run ID] [--seed S] [--runs K] [--trials T]
     dune exec bench/emit_json.exe -- --check FILE   # validate only (CI smoke)
     dune exec bench/emit_json.exe -- -o FILE --run ID \
       --parent REV=results.json --parent-trees PATH=HASH,... \
       --change REV=results.json --change-trees PATH=HASH,... [--pairs TSV]
                                                     # wrap two scsbench suites

   The committed BENCH_5.json at the repo root is produced by the
   default invocation:
     dune exec bench/emit_json.exe -- -o BENCH_5.json

   Each cell is measured [trials] times and the trial with the highest
   schedules_per_sec is kept: the recorded metrics (p50/p99 steps, max
   interval contention) are deterministic for a fixed seed, so trials
   differ only in wall-clock throughput, and best-of-T filters
   scheduler/frequency noise out of the committed numbers. *)

open Scs_workload
open Scs_obs

let cells =
  (* workloads x process counts covered by the trajectory; chosen to
     exercise both contention classes (interval: split, step: bakery)
     plus the composed speculative TAS the paper centres on *)
  [
    (Obs_run.A1, [ 2; 4; 8 ]);
    (Obs_run.Tas Tas_run.Composed, [ 2; 4; 8 ]);
    (Obs_run.Tas Tas_run.Solo_fast, [ 2; 4; 8 ]);
    (Obs_run.Cons Cons_run.Split, [ 2; 4; 8 ]);
    (Obs_run.Cons Cons_run.Bakery, [ 2; 4; 8 ]);
  ]

(* parallel-generation cells: the composed speculative TAS again with
   the batch fanned across OCaml domains (Obs_run.measure
   ~gen_domains). Recorded under a "+genG" workload suffix so the
   single-domain rows above stay comparable across PRs. *)
let gen_cells = [ (Obs_run.Tas Tas_run.Composed, [ 2; 4; 8 ], [ 2; 4 ]) ]

let best_record ~trials ~runs ~seed ~gen_domains target ~n =
  let rec go i best =
    if i >= trials then best
    else
      let r =
        Obs_run.to_record (Obs_run.measure ~runs ~seed ~gen_domains target ~n)
      in
      let best =
        match best with
        | Some b
          when b.Trajectory.schedules_per_sec >= r.Trajectory.schedules_per_sec
          ->
            Some b
        | _ -> Some r
      in
      go (i + 1) best
  in
  match go 0 None with
  | Some r -> r
  | None -> invalid_arg "emit_json: --trials must be >= 1"

let emit ~out ~run ~seed ~runs ~trials =
  let cell target ~n ~gen_domains =
    let r = best_record ~trials ~runs ~seed ~gen_domains target ~n in
    let r =
      if gen_domains = 1 then r
      else
        {
          r with
          Trajectory.workload =
            Printf.sprintf "%s+gen%d" (Obs_run.target_name target) gen_domains;
        }
    in
    Printf.eprintf "  %-18s n=%d  %.0f schedules/s\n%!" r.Trajectory.workload n
      r.Trajectory.schedules_per_sec;
    r
  in
  let base =
    List.concat_map
      (fun (target, ns) -> List.map (fun n -> cell target ~n ~gen_domains:1) ns)
      cells
  in
  let gen =
    List.concat_map
      (fun (target, ns, gs) ->
        List.concat_map
          (fun g -> List.map (fun n -> cell target ~n ~gen_domains:g) ns)
          gs)
      gen_cells
  in
  let records = base @ gen in
  let t = { Trajectory.run; seed; records } in
  Trajectory.save out t;
  Printf.printf "wrote %s: %d records, schema %s\n" out (List.length records)
    Trajectory.schema_version

let check file =
  match Trajectory.load file with
  | Ok (Trajectory.Trajectory t) ->
      let native =
        List.length
          (List.filter (fun r -> r.Trajectory.native <> None) t.Trajectory.records)
      in
      Printf.printf "%s: valid (%s, run %s, %d records%s)\n" file
        Trajectory.schema_version t.Trajectory.run
        (List.length t.Trajectory.records)
        (if native > 0 then Printf.sprintf ", %d native" native else "");
      true
  | Ok (Trajectory.Suite_pair p) ->
      Printf.printf "%s: valid (%s, run %s, parent %s, change %s, %d pairs)\n" file
        Trajectory.suite_pair_schema p.Trajectory.label p.Trajectory.parent.Trajectory.revision
        p.Trajectory.change.Trajectory.revision (List.length p.Trajectory.pairs);
      true
  | Error msg ->
      Printf.eprintf "%s: INVALID: %s\n" file msg;
      false

(* Wrap two scsbench suite outputs (REV=FILE each, with the git tree
   hashes of the measured source directories as PATH=HASH,...) and a TSV
   of paired runs (workload, metric, parent value, change value per
   line) into a suite-pair file. *)
let wrap ~out ~run ~parent ~parent_trees ~change ~change_trees ~pairs =
  let split_eq arg =
    match String.index_opt arg '=' with
    | None -> raise (Arg.Bad ("expected KEY=VALUE, got " ^ arg))
    | Some i -> (String.sub arg 0 i, String.sub arg (i + 1) (String.length arg - i - 1))
  in
  let trees arg = if arg = "" then [] else List.map split_eq (String.split_on_char ',' arg) in
  let side arg trees =
    let revision, file = split_eq arg in
    match Scs_util.Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok suite -> { Trajectory.revision; trees; suite }
    | Error e -> failwith (file ^ ": " ^ e)
  in
  let pairs =
    if pairs = "" then []
    else
      In_channel.with_open_text pairs In_channel.input_lines
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map (fun l ->
             match String.split_on_char '\t' l with
             | [ w; m; p; c ] ->
                 {
                   Trajectory.p_workload = w;
                   p_metric = m;
                   p_parent = float_of_string p;
                   p_change = float_of_string c;
                 }
             | _ -> failwith ("bad pairs line: " ^ l))
  in
  let p =
    {
      Trajectory.label = run;
      parent = side parent (trees parent_trees);
      change = side change (trees change_trees);
      pairs;
    }
  in
  Trajectory.save_suite_pair out p;
  Printf.printf "wrote %s: schema %s, %d pairs\n" out Trajectory.suite_pair_schema
    (List.length pairs)

(* --check with no positional files validates every committed
   trajectory in the working directory, so adding BENCH_<k+1>.json to
   the repo root is automatically covered by the CI smoke. *)
let bench_glob () =
  Sys.readdir "."
  |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 11
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json")
  |> List.sort compare

let () =
  let out = ref "BENCH_5.json" in
  let run = ref "pr5" in
  let seed = ref 42 in
  let runs = ref 20000 in
  let trials = ref 5 in
  let check_mode = ref false in
  let parent = ref "" and change = ref "" and pairs = ref "" in
  let parent_trees = ref "" and change_trees = ref "" in
  let files = ref [] in
  let spec =
    [
      ("-o", Arg.Set_string out, "FILE output path (default BENCH_5.json)");
      ("--run", Arg.Set_string run, "ID run identifier (default pr5)");
      ("--seed", Arg.Set_int seed, "S root seed (default 42)");
      ("--runs", Arg.Set_int runs, "K simulations per cell (default 20000)");
      ( "--trials",
        Arg.Set_int trials,
        "T trials per cell, best throughput kept (default 5)" );
      ( "--check",
        Arg.Set check_mode,
        " validate trajectory files and exit (positional FILEs; default: every \
         BENCH_*.json in the working directory)" );
      ("--parent", Arg.Set_string parent, "REV=FILE wrap mode: the parent's scsbench results.json");
      ( "--parent-trees",
        Arg.Set_string parent_trees,
        "PATH=HASH,... wrap mode: git tree hashes of the parent's measured source directories" );
      ("--change", Arg.Set_string change, "REV=FILE wrap mode: the change's scsbench results.json");
      ( "--change-trees",
        Arg.Set_string change_trees,
        "PATH=HASH,... wrap mode: git tree hashes of the change's measured source directories" );
      ("--pairs", Arg.Set_string pairs, "FILE wrap mode: TSV of paired runs");
    ]
  in
  Arg.parse spec
    (fun a ->
      files := a :: !files)
    "emit_json [-o FILE] [--run ID] [--seed S] [--runs K] [--trials T] | --check [FILE...]\n\
    \       | -o FILE --run ID --parent REV=FILE --parent-trees PATH=HASH,... --change \
     REV=FILE --change-trees PATH=HASH,... [--pairs FILE]";
  if !parent <> "" || !change <> "" then
    wrap ~out:!out ~run:!run ~parent:!parent ~parent_trees:!parent_trees ~change:!change
      ~change_trees:!change_trees ~pairs:!pairs
  else if not !check_mode then begin
    (match !files with
    | [] -> ()
    | f :: _ -> raise (Arg.Bad (Printf.sprintf "unexpected argument %s" f)));
    emit ~out:!out ~run:!run ~seed:!seed ~runs:!runs ~trials:!trials
  end
  else begin
    let files = match List.rev !files with [] -> bench_glob () | fs -> fs in
    if files = [] then begin
      Printf.eprintf "--check: no BENCH_*.json files found\n";
      exit 1
    end;
    let ok = List.fold_left (fun acc f -> check f && acc) true files in
    exit (if ok then 0 else 1)
  end
