(* Observability sink (lib/obs): known-answer contention traces,
   counter bookkeeping, ring-buffer bounds, trajectory JSON round-trips,
   and the no-interference contract (attaching a sink never changes any
   verdict). The contention known-answers are hand-computed from the
   definitions in paper §2 / Appendix A; the simulator-driven cases are
   cross-checked against Scs_sim.Detect, the post-hoc reference
   implementation. *)

open Scs_util
open Scs_sim
open Scs_workload
open Scs_obs

let step obs ~pid ?(obj = 0) ?(name = "r") () =
  Obs.step obs ~pid ~kind:Obs.Read ~obj ~obj_name:name ~info:""

(* p0 brackets an op; p1 takes 3 steps inside it but never opens a
   bracket of its own: step contention 3, interval contention 0. *)
let test_known_answer_step_contention () =
  let obs = Obs.create ~n:3 () in
  Obs.op_begin obs ~pid:0 ~obj:0 ~label:"op";
  step obs ~pid:0 ();
  step obs ~pid:1 ();
  step obs ~pid:1 ();
  step obs ~pid:0 ();
  step obs ~pid:1 ();
  Obs.op_end obs ~pid:0 ~aborted:false;
  match Obs.op_metrics obs with
  | [ m ] ->
      Alcotest.(check int) "own steps" 2 m.Obs.om_steps;
      Alcotest.(check int) "step contention" 3 m.Obs.om_step_contention;
      Alcotest.(check int) "interval contention" 0 m.Obs.om_interval_contention;
      Alcotest.(check bool) "not aborted" false m.Obs.om_aborted;
      Alcotest.(check int) "interval" 5 (m.Obs.om_finish - m.Obs.om_start)
  | ms -> Alcotest.failf "expected 1 op metric, got %d" (List.length ms)

(* Overlap diagram (time left to right, brackets are op intervals):
     p0:  [===============]
     p1:    [====]
     p2:            [========]
   p0 overlaps both p1 and p2 (interval contention 2); p1 and p2 never
   coexist (1 each). Step contention stays 0: nobody takes steps. *)
let test_known_answer_interval_contention () =
  let obs = Obs.create ~n:3 () in
  Obs.op_begin obs ~pid:0 ~obj:0 ~label:"p0";
  Obs.op_begin obs ~pid:1 ~obj:0 ~label:"p1";
  Obs.op_end obs ~pid:1 ~aborted:false;
  Obs.op_begin obs ~pid:2 ~obj:0 ~label:"p2";
  Obs.op_end obs ~pid:2 ~aborted:true;
  Obs.op_end obs ~pid:0 ~aborted:false;
  let find pid =
    List.find (fun m -> m.Obs.om_pid = pid) (Obs.op_metrics obs)
  in
  Alcotest.(check int) "p0 ivl" 2 (find 0).Obs.om_interval_contention;
  Alcotest.(check int) "p1 ivl" 1 (find 1).Obs.om_interval_contention;
  Alcotest.(check int) "p2 ivl" 1 (find 2).Obs.om_interval_contention;
  Alcotest.(check int) "p0 stepC" 0 (find 0).Obs.om_step_contention;
  Alcotest.(check bool) "p2 aborted" true (find 2).Obs.om_aborted;
  Alcotest.(check int) "max ivl" 2 (Obs.max_interval_contention obs);
  Alcotest.(check int) "max stepC" 0 (Obs.max_step_contention obs)

(* Back-to-back brackets of the same process never overlap themselves,
   and a second op_begin implicitly closes the first as non-aborted. *)
let test_implicit_close () =
  let obs = Obs.create ~n:2 () in
  Obs.op_begin obs ~pid:0 ~obj:0 ~label:"first";
  step obs ~pid:0 ();
  Obs.op_begin obs ~pid:0 ~obj:1 ~label:"second";
  Obs.op_end obs ~pid:0 ~aborted:false;
  let ms = Obs.op_metrics obs in
  Alcotest.(check int) "two metrics" 2 (List.length ms);
  let first = List.find (fun m -> m.Obs.om_label = "first") ms in
  Alcotest.(check bool) "closed clean" false first.Obs.om_aborted;
  Alcotest.(check int) "first's steps" 1 first.Obs.om_steps;
  (* op_end without a bracket is a no-op, not an error *)
  Obs.op_end obs ~pid:1 ~aborted:false;
  Alcotest.(check int) "still two" 2 (List.length (Obs.op_metrics obs))

let test_counters_and_objects () =
  let obs = Obs.create ~n:2 () in
  Obs.step obs ~pid:0 ~kind:Obs.Rmw ~obj:1 ~obj_name:"l.cas" ~info:"cas 0->1";
  Obs.step obs ~pid:0 ~kind:Obs.Rmw ~obj:1 ~obj_name:"l.cas" ~info:"cas 0->1";
  Obs.step obs ~pid:1 ~kind:Obs.Rmw ~obj:2 ~obj_name:"l.swap" ~info:"swap";
  Obs.step obs ~pid:1 ~kind:Obs.Write ~obj:3 ~obj_name:"r" ~info:"";
  Alcotest.(check int) "total" 4 (Obs.total_steps obs);
  Alcotest.(check int) "clock" 4 (Obs.clock obs);
  Alcotest.(check int) "p0 steps" 2 (Obs.steps_of obs 0);
  Alcotest.(check int) "p0 rmw" 2 (Obs.rmws_of obs 0);
  Alcotest.(check int) "p0 cas" 2 (Obs.cas_attempts_of obs 0);
  Alcotest.(check int) "p1 rmw" 1 (Obs.rmws_of obs 1);
  Alcotest.(check int) "p1 cas (swap is not cas)" 0 (Obs.cas_attempts_of obs 1);
  Obs.abort obs ~pid:1;
  Obs.handoff obs ~pid:1 ~label:"a1->a2";
  Obs.crash obs ~pid:0;
  Alcotest.(check int) "aborts" 1 (Obs.total_aborts obs);
  Alcotest.(check int) "handoffs" 1 (Obs.handoffs_of obs 1);
  Alcotest.(check (list int)) "crashes" [ 0 ] (Obs.crashes obs);
  match Obs.objects obs with
  | (top, steps, rmws) :: _ ->
      Alcotest.(check string) "busiest object" "l.cas" top;
      Alcotest.(check int) "its steps" 2 steps;
      Alcotest.(check int) "its rmws" 2 rmws
  | [] -> Alcotest.fail "object census empty"

(* An object takes the simulator id that a differently named object had
   in the previous run on the same simulator, rewound with [Sim.clear].
   The census keeps each one's steps under its own name, in the sink and
   through a merge. *)
let test_census_id_reuse () =
  let obs = Obs.create ~n:1 () in
  let sim = Sim.create ~obs ~n:1 () in
  let setup ~name ~reads =
    let r = Sim.reg sim ~name 0 in
    Sim.spawn sim 0 (fun () ->
        for _ = 1 to reads do
          ignore (Sim.read r)
        done)
  in
  setup ~name:"first" ~reads:1;
  Sim.run sim (Policy.solo 0);
  Sim.clear sim;
  setup ~name:"second" ~reads:2;
  Sim.run sim (Policy.solo 0);
  let census = Alcotest.(list (triple string int int)) in
  Alcotest.(check census) "each name keeps its steps" [ ("second", 2, 0); ("first", 1, 0) ]
    (Obs.objects obs);
  let merged = Obs.create ~n:1 () in
  step merged ~pid:0 ~name:"second" ();
  Obs.merge_into ~into:merged obs;
  Obs.merge_into ~into:merged obs;
  Alcotest.(check census) "merged by name" [ ("second", 5, 0); ("first", 2, 0) ]
    (Obs.objects merged)

let test_crash_closes_bracket_aborted () =
  let obs = Obs.create ~n:2 () in
  Obs.op_begin obs ~pid:0 ~obj:0 ~label:"doomed";
  step obs ~pid:0 ();
  Obs.crash obs ~pid:0;
  match Obs.op_metrics obs with
  | [ m ] -> Alcotest.(check bool) "aborted by crash" true m.Obs.om_aborted
  | ms -> Alcotest.failf "expected 1 metric, got %d" (List.length ms)

let test_ring_eviction () =
  let obs = Obs.create ~ring_capacity:4 ~n:1 () in
  for i = 1 to 10 do
    Obs.step obs ~pid:0 ~kind:Obs.Read ~obj:0 ~obj_name:"r" ~info:(string_of_int i)
  done;
  let evs = Obs.events obs in
  Alcotest.(check int) "bounded" 4 (List.length evs);
  (* oldest first, and the oldest survivor is step 7 of 10 *)
  (match evs with
  | Obs.Step { info; _ } :: _ -> Alcotest.(check string) "oldest" "7" info
  | _ -> Alcotest.fail "expected Step events");
  Alcotest.(check int) "counters unaffected by eviction" 10 (Obs.total_steps obs)

let test_null_sink () =
  let obs = Obs.null in
  Alcotest.(check bool) "disabled" false (Obs.enabled obs);
  step obs ~pid:0 ();
  Obs.op_begin obs ~pid:0 ~obj:0 ~label:"x";
  Obs.op_end obs ~pid:0 ~aborted:true;
  Obs.abort obs ~pid:0;
  Obs.crash obs ~pid:0;
  Alcotest.(check int) "no steps" 0 (Obs.total_steps obs);
  Alcotest.(check int) "no metrics" 0 (List.length (Obs.op_metrics obs));
  Alcotest.(check int) "no events" 0 (List.length (Obs.events obs))

(* A solo run measures zero for both estimators — the premise of every
   "solo cost" claim in the paper. *)
let test_solo_zero_contention () =
  let a = Obs_run.solo (Obs_run.Cons Cons_run.Bakery) ~n:4 in
  Alcotest.(check int) "solo ivl contention" 0 a.Obs_run.max_interval_contention;
  List.iter
    (fun m ->
      Alcotest.(check int) "solo stepC" 0 m.Obs.om_step_contention;
      Alcotest.(check bool) "solo commits" false m.Obs.om_aborted)
    a.Obs_run.ops

(* Cross-check the online estimator against Scs_sim.Detect, the post-hoc
   reference scan over the low-level memory trace. The sink's clock
   coincides with Sim.clock when attached at creation, so each
   op_metric's [om_start, om_finish] is directly a Detect.interval. *)
let test_cross_check_detect () =
  List.iter
    (fun seed ->
      let obs = Obs.create ~n:4 () in
      let r =
        Tas_run.one_shot ~seed ~trace_mem:true ~obs ~n:4 ~algo:Tas_run.Composed
          ~policy:(fun rng -> Policy.random rng)
          ()
      in
      let mem = r.Tas_run.mem in
      List.iter
        (fun m ->
          let iv =
            {
              Detect.pid = m.Obs.om_pid;
              start_ts = m.Obs.om_start;
              end_ts = m.Obs.om_finish;
            }
          in
          Alcotest.(check int)
            (Printf.sprintf "seed %d p%d own steps" seed m.Obs.om_pid)
            (Detect.steps_within mem iv) m.Obs.om_steps;
          let ref_contention =
            Array.fold_left
              (fun acc (e : Mem_event.t) ->
                if e.pid <> iv.Detect.pid && e.ts > iv.Detect.start_ts
                   && e.ts <= iv.Detect.end_ts
                then acc + 1
                else acc)
              0 mem
          in
          Alcotest.(check int)
            (Printf.sprintf "seed %d p%d step contention" seed m.Obs.om_pid)
            ref_contention m.Obs.om_step_contention;
          Alcotest.(check bool)
            (Printf.sprintf "seed %d p%d contended flag agrees" seed m.Obs.om_pid)
            (Detect.step_contended mem iv)
            (m.Obs.om_step_contention > 0))
        (Obs.op_metrics obs))
    [ 1; 7; 42; 1234 ]

(* Attaching a sink must never change what the fuzzer concludes: same
   seeds, same policies, obs on vs off, identical verdict counts and
   identical violation schedules. *)
let test_obs_never_changes_verdicts () =
  let run ~obs =
    Fuzz_run.fuzz ?obs ~runs:40 ~seed:9
      (Option.get (Fuzz_run.find "tas-composed"))
      ~n:3
  in
  let off = run ~obs:None in
  let on = run ~obs:(Some (Obs.create ~n:3 ())) in
  let digest (r : Fuzz.report) =
    List.map
      (fun (s : Fuzz.policy_stats) ->
        ((s.Fuzz.s_policy, s.Fuzz.s_runs), (s.Fuzz.s_violations, s.Fuzz.s_skipped)))
      r.Fuzz.r_stats
  in
  Alcotest.(check (list (pair (pair string int) (pair int int))))
    "per-policy verdicts identical" (digest off) (digest on);
  Alcotest.(check int) "violation lists identical"
    (List.length off.Fuzz.r_violations)
    (List.length on.Fuzz.r_violations)

(* merge_into folds one sink into another: counters summed, census
   merged, maxima maxed, crashes appended after the destination's, ring
   replayed oldest-first, open brackets of the source dropped. *)
let test_merge_into () =
  let a = Obs.create ~n:3 () in
  let b = Obs.create ~n:3 () in
  Obs.op_begin a ~pid:0 ~obj:0 ~label:"opA";
  step a ~pid:0 ();
  step a ~pid:1 ~obj:1 ~name:"s" ();
  Obs.op_end a ~pid:0 ~aborted:false;
  Obs.crash a ~pid:2;
  Obs.op_begin b ~pid:1 ~obj:0 ~label:"opB";
  step b ~pid:1 ();
  step b ~pid:1 ();
  Obs.op_end b ~pid:1 ~aborted:true;
  Obs.abort b ~pid:1;
  Obs.crash b ~pid:0;
  Obs.op_begin b ~pid:2 ~obj:0 ~label:"open";
  (* still open: must be dropped by the merge *)
  Obs.merge_into ~into:a b;
  Alcotest.(check int) "steps summed" 4 (Obs.total_steps a);
  Alcotest.(check int) "clock summed" 4 (Obs.clock a);
  Alcotest.(check int) "p1 steps summed" 3 (Obs.steps_of a 1);
  Alcotest.(check int) "aborts summed" 1 (Obs.total_aborts a);
  Alcotest.(check (list int)) "crashes appended after destination" [ 2; 0 ]
    (Obs.crashes a);
  Alcotest.(check int) "op metrics appended" 2 (List.length (Obs.op_metrics a));
  (match Obs.objects a with
  | (name, steps, _) :: _ ->
      Alcotest.(check string) "census merged: busiest object" "r" name;
      Alcotest.(check int) "census merged: steps" 3 steps
  | [] -> Alcotest.failf "census empty after merge");
  (* the open bracket's begin event stays in the ring (history), only
     its bracket state is dropped *)
  Alcotest.(check int) "ring replayed"
    (4 (* steps *) + 2 (* begin/end A *) + 2 (* begin/end B *) + 2 (* crashes *)
   + 1 (* dangling op_begin *))
    (List.length (Obs.events a));
  (* source unchanged *)
  Alcotest.(check int) "source untouched" 2 (Obs.total_steps b);
  (* disabled destination rejected, disabled source a no-op *)
  (match Obs.merge_into ~into:Obs.null a with
  | () -> Alcotest.failf "merge into null must raise"
  | exception Invalid_argument _ -> ());
  let before = Obs.total_steps a in
  Obs.merge_into ~into:a Obs.null;
  Alcotest.(check int) "null source is no-op" before (Obs.total_steps a)

(* Parallel exploration with a sink: domains > 1 used to raise; now each
   worker records into a private sink merged at join, and for a complete
   exploration the merged step totals equal the sequential ones. *)
let test_explore_obs_domains () =
  let setup sim =
    let r = Sim.reg sim ~name:"r" 0 in
    for pid = 0 to 1 do
      Sim.spawn sim pid (fun () ->
          ignore (Sim.read r);
          Sim.write r pid)
    done
  in
  let run domains =
    let obs = Obs.create ~n:2 () in
    let outcome =
      Explore.exhaustive ~domains ~obs ~n:2 ~setup ~check:(fun _ _ -> ()) ()
    in
    (outcome, obs)
  in
  let (seq_out, seq_obs) = run 1 in
  let (par_out, par_obs) = run 2 in
  Alcotest.(check int) "same schedule count" seq_out.Explore.schedules
    par_out.Explore.schedules;
  (* recorded steps include backtrack replays, whose structure differs
     between engines, so totals are engine-specific — but every maximal
     schedule contributes its 4 memory steps (2 reads + 2 writes), and
     the merged clock must stay consistent with the merged step count *)
  Alcotest.(check bool) "merged sink covers every schedule" true
    (Obs.total_steps par_obs >= 4 * par_out.Explore.schedules);
  Alcotest.(check int) "sequential clock consistent" (Obs.total_steps seq_obs)
    (Obs.clock seq_obs);
  Alcotest.(check int) "merged clock consistent" (Obs.total_steps par_obs)
    (Obs.clock par_obs);
  Alcotest.(check (list string)) "merged census covers the same objects"
    (List.map (fun (name, _, _) -> name) (Obs.objects seq_obs))
    (List.map (fun (name, _, _) -> name) (Obs.objects par_obs))

(* Trajectory schema: value round-trip, file round-trip, and the
   validator rejecting what it must reject. *)
let test_trajectory_roundtrip () =
  let t =
    {
      Trajectory.run = "test";
      seed = 7;
      records =
        [
          {
            Trajectory.workload = "a1";
            sim_backend = Some "sim-lin";
            n = 4;
            runs = 10;
            p50_steps = 3.0;
            p99_steps = 9.5;
            max_interval_contention = 2;
            schedules_per_sec = 123.4;
            native = None;
          };
          {
            Trajectory.workload = "native:speculative:r0.50-zipf0.99-k16";
            sim_backend = None;
            n = 4;
            runs = 100000;
            p50_steps = 0.0;
            p99_steps = 0.0;
            max_interval_contention = 0;
            schedules_per_sec = 81234.5;
            native =
              Some
                {
                  Trajectory.backend = "native";
                  domains = 4;
                  ops_per_sec = 81234.5;
                  p50_us = 1.2;
                  p99_us = 9.8;
                  p999_us = 40.0;
                  abort_rate = 0.05;
                };
          };
        ];
    }
  in
  (match Trajectory.of_json (Trajectory.to_json t) with
  | Ok t' -> Alcotest.(check bool) "value round-trip" true (t = t')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  let file = Filename.temp_file "traj" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trajectory.save file t;
      match Trajectory.load file with
      | Ok (Trajectory.Trajectory t') -> Alcotest.(check bool) "file round-trip" true (t = t')
      | Ok (Trajectory.Suite_pair _) -> Alcotest.fail "read back as a suite pair"
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_trajectory_validation_errors () =
  let reject label raw =
    match Trajectory.validate raw with
    | Ok _ -> Alcotest.failf "%s: accepted invalid input" label
    | Error _ -> ()
  in
  reject "not json" "][";
  reject "wrong schema tag"
    {|{"schema":"scs.bench.trajectory/999","run":"x","seed":1,"records":[]}|};
  reject "missing seed" {|{"schema":"scs.bench.trajectory/1","run":"x","records":[]}|};
  reject "record missing field"
    {|{"schema":"scs.bench.trajectory/1","run":"x","seed":1,
       "records":[{"workload":"a1","n":2,"runs":5}]}|};
  reject "native sub-record missing field"
    {|{"schema":"scs.bench.trajectory/1","run":"x","seed":1,
       "records":[{"workload":"w","n":2,"runs":5,"p50_steps":1.0,"p99_steps":2.0,
                   "max_interval_contention":0,"schedules_per_sec":1.0,
                   "native":{"backend":"native","domains":2}}]}|};
  match
    Trajectory.validate
      {|{"schema":"scs.bench.trajectory/1","run":"x","seed":1,"records":[]}|}
  with
  | Ok (Trajectory.Trajectory t) ->
      Alcotest.(check int) "empty records ok" 0 (List.length t.Trajectory.records)
  | Ok (Trajectory.Suite_pair _) -> Alcotest.fail "read back as a suite pair"
  | Error e -> Alcotest.failf "rejected valid input: %s" e

(* Suite pairs: a round-trip through [validate], and the rejections
   that keep a committed claim comparable. *)
let test_suite_pair_validation () =
  let suite ?(workloads = [ "uc-solo" ]) ?(median = Json.Float 2.0) () =
    Json.Obj
      [
        ("host_cores", Json.Int 2);
        ("ocaml", Json.String "5.1.1");
        ( "workloads",
          Json.Obj
            (List.map
               (fun w ->
                 let ops = Json.Obj [ ("median", median) ] in
                 (w, Json.Obj [ ("end_to_end", Json.Obj [ ("ops_per_s", ops) ]) ]))
               workloads) );
      ]
  in
  let pair ?(change = suite ()) ?(trees = [ ("lib", "b0") ]) () =
    {
      Trajectory.label = "test";
      parent = { Trajectory.revision = "a"; trees = [ ("lib", "a0") ]; suite = suite () };
      change = { Trajectory.revision = "b-dirty"; trees; suite = change };
      pairs =
        [
          {
            Trajectory.p_workload = "uc-solo";
            p_metric = "ops_per_s";
            p_parent = 1.0;
            p_change = 2.0;
          };
        ];
    }
  in
  let validate p = Trajectory.validate (Json.to_string (Trajectory.suite_pair_to_json p)) in
  (match validate (pair ()) with
  | Ok (Trajectory.Suite_pair p) -> Alcotest.(check bool) "round-trip" true (p = pair ())
  | Ok (Trajectory.Trajectory _) -> Alcotest.fail "read back as a trajectory"
  | Error e -> Alcotest.failf "rejected a valid pair: %s" e);
  let reject label p =
    match validate p with Ok _ -> Alcotest.failf "%s: accepted" label | Error _ -> ()
  in
  reject "different workloads" (pair ~change:(suite ~workloads:[ "kv-s1" ] ()) ());
  reject "no workloads" (pair ~change:(suite ~workloads:[] ()) ());
  reject "no source trees" (pair ~trees:[] ());
  reject "median not a number" (pair ~change:(suite ~median:(Json.String "x") ()) ())

let test_json_parser () =
  let roundtrip v =
    match Json.of_string (Json.to_string v) with
    | Ok v' -> Alcotest.(check bool) "json round-trip" true (v = v')
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  roundtrip
    (Json.Obj
       [
         ("s", Json.String "q\"uo\\te\n");
         ("i", Json.Int (-42));
         ("f", Json.Float 1.5);
         ("l", Json.List [ Json.Bool true; Json.Null ]);
         ("empty", Json.Obj []);
       ]);
  (match Json.of_string "{\"a\": [1, 2.5]}" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5 ]) ]) -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed json: %s" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

(* Every engine allocates a TAS algorithm through Tas_run's one builder,
   so one sequential run leaves the same object names in the census
   whichever engine drove it: Tas_run.one_shot, Obs_run's target, the
   traced spawn loop of explore and the fuzz workloads, and the fuzz
   workload itself where one exists. *)
let test_one_builder_per_algorithm () =
  let n = 3 in
  let sequential _ = Policy.sequential () in
  let names objects = List.sort compare (List.map (fun (name, _, _) -> name) objects) in
  let census install =
    let obs = Obs.create ~n () in
    let sim = Sim.create ~obs ~n () in
    install sim;
    Sim.run sim (Policy.sequential ());
    names (Obs.objects obs)
  in
  List.iter
    (fun (algo, fuzz_workload) ->
      let what = Tas_run.algo_name algo in
      let obs = Obs.create ~n () in
      ignore (Tas_run.one_shot ~obs ~n ~algo ~policy:sequential ());
      let one_shot = names (Obs.objects obs) in
      let list = Alcotest.(list string) in
      Alcotest.(check bool) (what ^ ": census not empty") true (one_shot <> []);
      let agg = Obs_run.measure ~runs:1 ~policy:sequential (Obs_run.Tas algo) ~n in
      Alcotest.check list (what ^ ": Obs_run") one_shot (names agg.Obs_run.objects);
      let backend = Scs_prims.Backend.default in
      Alcotest.check list (what ^ ": traced spawn loop") one_shot
        (census (fun sim -> ignore (Tas_run.spawn_traced ~backend ~n ~algo sim)));
      Option.iter
        (fun name ->
          let w = Option.get (Fuzz_run.find name) in
          Alcotest.check list (what ^ ": fuzz " ^ name) one_shot
            (census (w.Fuzz_run.instantiate ~n ()).Fuzz_run.setup))
        fuzz_workload)
    [
      (Tas_run.Composed, Some "tas-composed");
      (Tas_run.Strict, Some "tas-strict");
      (Tas_run.Solo_fast, Some "tas-solo-fast");
      (Tas_run.Hardware, None);
      (Tas_run.Tournament, None);
    ]

let tests =
  [
    Alcotest.test_case "known-answer: step contention" `Quick
      test_known_answer_step_contention;
    Alcotest.test_case "known-answer: interval contention" `Quick
      test_known_answer_interval_contention;
    Alcotest.test_case "implicit close on re-begin" `Quick test_implicit_close;
    Alcotest.test_case "counters and object census" `Quick test_counters_and_objects;
    Alcotest.test_case "census keeps reused ids apart by name" `Quick test_census_id_reuse;
    Alcotest.test_case "crash closes bracket as aborted" `Quick
      test_crash_closes_bracket_aborted;
    Alcotest.test_case "ring buffer evicts oldest" `Quick test_ring_eviction;
    Alcotest.test_case "null sink is inert" `Quick test_null_sink;
    Alcotest.test_case "solo run measures zero contention" `Quick
      test_solo_zero_contention;
    Alcotest.test_case "online estimators match Detect" `Quick test_cross_check_detect;
    Alcotest.test_case "obs never changes fuzz verdicts" `Quick
      test_obs_never_changes_verdicts;
    Alcotest.test_case "merge_into folds sinks" `Quick test_merge_into;
    Alcotest.test_case "explore merges per-domain sinks" `Quick
      test_explore_obs_domains;
    Alcotest.test_case "trajectory round-trip" `Quick test_trajectory_roundtrip;
    Alcotest.test_case "trajectory validation errors" `Quick
      test_trajectory_validation_errors;
    Alcotest.test_case "suite pair validation" `Quick test_suite_pair_validation;
    Alcotest.test_case "json parser round-trip and errors" `Quick test_json_parser;
    Alcotest.test_case "one builder per TAS algorithm" `Quick
      test_one_builder_per_algorithm;
  ]
