(* Differential tests for the simulator-reusing batch engines.

   [Fuzz.run] executes every run on a reused simulator: one per policy
   and gen stream, rewound with [Sim.clear] and re-[setup] between runs.
   [fresh_fuzz] below is the fresh-simulator engine it replaced, kept
   here only as the oracle: a new [Sim.create] per run under the same
   seed streams, policies and crash events. The contract is that the two
   are bit-identical: same schedules, same verdicts, same obs counters,
   for every portfolio policy including the crash-injecting ones. These
   tests enforce that contract, the same one for [Obs_run.measure]'s
   batches ([fresh_obs_run]), plus recovery of a [Sim.clear] rewind
   after [Livelock] and [Process_failure], and the [Streams] split both
   engines fan out with. *)

open Scs_sim
open Scs_workload

let seeds = [ 1; 7; 1234 ]

type fresh_run = {
  f_seed : int;
  f_schedule : int array;
  f_crashes : Crash.t list;
  f_steps : int;
  f_contention : int;
  f_verdict : [ `Ok | `Viol of string | `Skip ];
}

(* Schedule-level step contention of one run, as [Fuzz] defines it: per
   process, the turns other processes take between its first and last
   turns; the max over processes. *)
let schedule_contention ~n sched =
  let first = Array.make n (-1) and last = Array.make n (-1) and count = Array.make n 0 in
  Array.iteri
    (fun i p ->
      if p >= 0 && p < n then begin
        if first.(p) < 0 then first.(p) <- i;
        last.(p) <- i;
        count.(p) <- count.(p) + 1
      end)
    sched;
  let m = ref 0 in
  for p = 0 to n - 1 do
    if count.(p) > 0 then m := max !m (last.(p) - first.(p) + 1 - count.(p))
  done;
  !m

(* One fresh simulator per run, [Fuzz.run]'s seed derivation (one gen
   domain) and inline checks. Returns each policy's runs in order, with
   the number of large histories its checks reported. *)
let fresh_fuzz ?(policies = Fuzz.default_portfolio) ?obs ~runs ~seed (w : Fuzz_run.t) ~n =
  List.mapi
    (fun idx (spec : Fuzz.policy_spec) ->
      let prng = Scs_util.Rng.create (seed + (0x9E3779B9 * (idx + 1))) in
      let large0 = Fuzz.checked_large_total () in
      let one () =
        let run_seed = Scs_util.Rng.int prng 0x3FFFFFFF in
        let rng = Scs_util.Rng.create run_seed in
        let inst = w.Fuzz_run.instantiate ~n () in
        let sim = Sim.create ?obs ~n () in
        inst.Fuzz_run.setup sim;
        let crashes =
          if spec.Fuzz.crash_faults then
            Fuzz.gen_crash_events ~prob:0.25 ~recover:spec.crash_recover rng n 15
          else []
        in
        let buf = Scs_util.Vec.create () in
        let f_verdict =
          match
            Sim.run ~capture:buf ~crashes sim (Fuzz.base_policy spec.kind rng n);
            inst.Fuzz_run.check sim
          with
          | () -> `Ok
          | exception Fuzz.Violation msg -> `Viol msg
          | exception (Fuzz.Skip _ | Sim.Livelock _) -> `Skip
        in
        let f_schedule = Scs_util.Vec.to_array buf in
        {
          f_seed = run_seed;
          f_schedule;
          f_crashes = crashes;
          f_steps = Sim.total_steps sim;
          f_contention = schedule_contention ~n f_schedule;
          f_verdict;
        }
      in
      let fruns = List.init runs (fun _ -> one ()) in
      (Fuzz.spec_name spec, fruns, Fuzz.checked_large_total () - large0))
    policies

let check_viol_eq label (a : Fuzz.violation) (b : Fuzz.violation) =
  Alcotest.(check string) (label ^ " policy") a.Fuzz.v_policy b.Fuzz.v_policy;
  Alcotest.(check int) (label ^ " seed") a.v_seed b.v_seed;
  Alcotest.(check (array int)) (label ^ " schedule") a.v_schedule b.v_schedule;
  Alcotest.(check (list (testable Crash.pp Crash.equal)))
    (label ^ " crashes") a.v_crashes b.v_crashes;
  Alcotest.(check string) (label ^ " error") a.v_error b.v_error

let check_stats_eq label (a : Fuzz.policy_stats) (b : Fuzz.policy_stats) =
  Alcotest.(check string) (label ^ " policy") a.Fuzz.s_policy b.Fuzz.s_policy;
  Alcotest.(check int) (label ^ " runs") a.s_runs b.s_runs;
  Alcotest.(check int) (label ^ " turns") a.s_turns b.s_turns;
  Alcotest.(check int) (label ^ " violations") a.s_violations b.s_violations;
  Alcotest.(check int) (label ^ " skipped") a.s_skipped b.s_skipped;
  Alcotest.(check int) (label ^ " checked_large") a.s_checked_large b.s_checked_large;
  Alcotest.(check (float 1e-9)) (label ^ " p50") a.s_step_p50 b.s_step_p50;
  Alcotest.(check (float 1e-9)) (label ^ " p99") a.s_step_p99 b.s_step_p99;
  Alcotest.(check int) (label ^ " maxC") a.s_max_contention b.s_max_contention

let check_report_eq label (a : Fuzz.report) (b : Fuzz.report) =
  List.iter2 (check_stats_eq label) a.Fuzz.r_stats b.Fuzz.r_stats;
  Alcotest.(check int)
    (label ^ " #violations")
    (List.length a.r_violations)
    (List.length b.r_violations);
  List.iter2 (check_viol_eq label) a.r_violations b.r_violations

(* The pooled report against the fresh runs: per-policy run, turn,
   violation, skip and large-history counts, step percentiles, max
   schedule contention, and every violation (schedule + crashes + error,
   bit for bit). *)
let check_against_fresh label (r : Fuzz.report) fresh =
  List.iter2
    (fun (s : Fuzz.policy_stats) (name, runs, large) ->
      let l = label ^ " " ^ name in
      let count p = List.length (List.filter p runs) in
      let steps = Array.of_list (List.map (fun f -> float_of_int f.f_steps) runs) in
      Alcotest.(check string) (l ^ " policy") name s.Fuzz.s_policy;
      Alcotest.(check int) (l ^ " runs") (List.length runs) s.s_runs;
      Alcotest.(check int) (l ^ " turns")
        (List.fold_left (fun acc f -> acc + Array.length f.f_schedule) 0 runs)
        s.s_turns;
      Alcotest.(check int) (l ^ " violations")
        (count (fun f -> match f.f_verdict with `Viol _ -> true | _ -> false))
        s.s_violations;
      Alcotest.(check int) (l ^ " skipped") (count (fun f -> f.f_verdict = `Skip)) s.s_skipped;
      Alcotest.(check int) (l ^ " checked_large") large s.s_checked_large;
      Alcotest.(check int) (l ^ " maxC")
        (List.fold_left (fun acc f -> max acc f.f_contention) 0 runs)
        s.s_max_contention;
      Alcotest.(check (float 1e-9)) (l ^ " p50") (Scs_util.Stats.percentile steps 50.0)
        s.s_step_p50;
      Alcotest.(check (float 1e-9)) (l ^ " p99") (Scs_util.Stats.percentile steps 99.0)
        s.s_step_p99)
    r.Fuzz.r_stats fresh;
  let fresh_viols =
    List.concat_map
      (fun (name, runs, _) ->
        List.filter_map
          (fun f ->
            match f.f_verdict with
            | `Viol msg ->
                Some
                  {
                    Fuzz.v_workload = r.Fuzz.r_workload;
                    v_n = r.r_n;
                    v_policy = name;
                    v_seed = f.f_seed;
                    v_schedule = f.f_schedule;
                    v_crashes = f.f_crashes;
                    v_error = msg;
                  }
            | `Ok | `Skip -> None)
          runs)
      fresh
  in
  Alcotest.(check int) (label ^ " #violations") (List.length fresh_viols)
    (List.length r.r_violations);
  List.iter2 (check_viol_eq label) r.r_violations fresh_viols

(* Pooled vs fresh: full portfolio over a green workload, two
   known-failing finders and a workload whose histories pass the
   large-history threshold, at several seeds. *)
let test_pooled_vs_fresh_reports () =
  List.iter
    (fun (w, n, runs) ->
      List.iter
        (fun seed ->
          check_against_fresh
            (Printf.sprintf "%s seed=%d" w.Fuzz_run.name seed)
            (Fuzz_run.fuzz ~runs ~seed w ~n)
            (fresh_fuzz ~runs ~seed w ~n))
        seeds)
    [
      (Fuzz_run.tas_composed, 3, 40);
      (Fuzz_run.f1, 3, 40);
      (Fuzz_run.splitter, 3, 30);
      (Fuzz_run.queue, 3, 4);
    ]

(* Turn-for-turn schedules for EVERY run, not just violating ones: wrap
   a workload so check always raises Violation, surfacing the captured
   schedule of each run in the report. Pooled and fresh must produce
   identical schedule arrays run for run, for every portfolio policy
   (including uniform+crash, whose crash lists must also match). *)
let test_pooled_vs_fresh_every_schedule () =
  let n = 3 in
  let w =
    {
      Fuzz_run.tas_composed with
      Fuzz_run.name = "capture";
      instantiate =
        (fun ?backend ~n () ->
          let inst = Fuzz_run.tas_composed.Fuzz_run.instantiate ?backend ~n () in
          { inst with Fuzz_run.check = (fun _ -> raise (Fuzz.Violation "capture")) });
    }
  in
  List.iter
    (fun seed ->
      let pooled = Fuzz_run.fuzz ~runs:25 ~seed w ~n in
      Alcotest.(check int) "all runs surfaced" (5 * 25) (List.length pooled.Fuzz.r_violations);
      check_against_fresh (Printf.sprintf "capture seed=%d" seed) pooled
        (fresh_fuzz ~runs:25 ~seed w ~n))
    seeds

(* Obs counters: attach a sink to both engines and require identical
   step clocks, per-pid counters, abort/handoff totals, crash lists,
   contention maxima and object census. *)
let test_pooled_vs_fresh_obs () =
  let n = 3 in
  List.iter
    (fun seed ->
      let a = Scs_obs.Obs.create ~n () and b = Scs_obs.Obs.create ~n () in
      let (_ : Fuzz.report) = Fuzz_run.fuzz ~runs:40 ~seed ~obs:a Fuzz_run.tas_composed ~n in
      ignore (fresh_fuzz ~runs:40 ~seed ~obs:b Fuzz_run.tas_composed ~n);
      let module O = Scs_obs.Obs in
      Alcotest.(check int) "clock" (O.clock a) (O.clock b);
      Alcotest.(check int) "total steps" (O.total_steps a) (O.total_steps b);
      for pid = 0 to n - 1 do
        Alcotest.(check int) "steps_of" (O.steps_of a pid) (O.steps_of b pid);
        Alcotest.(check int) "rmws_of" (O.rmws_of a pid) (O.rmws_of b pid);
        Alcotest.(check int) "aborts_of" (O.aborts_of a pid) (O.aborts_of b pid);
        Alcotest.(check int) "handoffs_of" (O.handoffs_of a pid) (O.handoffs_of b pid)
      done;
      Alcotest.(check (list int)) "crashes" (O.crashes a) (O.crashes b);
      Alcotest.(check int) "max step contention" (O.max_step_contention a)
        (O.max_step_contention b);
      Alcotest.(check int) "max interval contention" (O.max_interval_contention a)
        (O.max_interval_contention b);
      Alcotest.(check (list (triple string int int))) "object census" (O.objects a)
        (O.objects b);
      Alcotest.(check int) "op metric count"
        (List.length (O.op_metrics a))
        (List.length (O.op_metrics b)))
    seeds

(* [Obs_run.measure] keeps one simulator per stream, rewinding it with
   [Sim.clear] and installing the target again between runs. This fresh
   loop installs every run on a new simulator instead, feeding one sink
   along the same rng chain. *)
let fresh_obs_run ~runs ~seed ~crash_prob target ~n =
  let backend = Scs_prims.Backend.default in
  let obs = Scs_obs.Obs.create ~record_ring:false ~n () in
  let prng = Scs_util.Rng.create seed in
  for _ = 1 to runs do
    let rng = Scs_util.Rng.split prng in
    let crashes = Fuzz.gen_crash_events ~prob:crash_prob ~recover:false rng n 15 in
    let sim = Sim.create ~obs ~n () in
    let pol_rng = Obs_run.install ~backend ~obs ~target ~n sim rng in
    let crashes = match target with Obs_run.Cons _ -> [] | _ -> crashes in
    try Sim.run ~crashes sim (Policy.random pol_rng) with Sim.Livelock _ -> ()
  done;
  obs

(* Every measured target, with and without crashes: the batch aggregate
   equals the fresh loop's sink, operation for operation. *)
let test_obs_run_vs_fresh () =
  let n = 3 and runs = 30 and seed = 11 in
  List.iter
    (fun target ->
      List.iter
        (fun crash_prob ->
          let l = Printf.sprintf "%s crash=%.2f" (Obs_run.target_name target) crash_prob in
          let a = Obs_run.measure ~runs ~seed ~crash_prob target ~n in
          let b = fresh_obs_run ~runs ~seed ~crash_prob target ~n in
          let module O = Scs_obs.Obs in
          Alcotest.(check int) (l ^ " runs") runs a.Obs_run.runs;
          Alcotest.(check int) (l ^ " #ops") (List.length (O.op_metrics b)) (List.length a.ops);
          if a.ops <> O.op_metrics b then Alcotest.failf "%s: op metrics diverged" l;
          Alcotest.(check int) (l ^ " max interval contention") (O.max_interval_contention b)
            a.max_interval_contention;
          Alcotest.(check int) (l ^ " aborts") (O.total_aborts b) a.aborts;
          Alcotest.(check int) (l ^ " handoffs") (O.total_handoffs b) a.handoffs;
          Alcotest.(check int) (l ^ " crashes") (List.length (O.crashes b)) a.crashes;
          Alcotest.(check (list (triple string int int))) (l ^ " object census") (O.objects b)
            a.objects)
        [ 0.0; 0.3 ])
    (List.filter_map Obs_run.target_of_string (Obs_run.target_names ()))

(* Rewind after Livelock: the budget blowup leaves fibers mid-flight;
   [Sim.clear] plus a second setup must give a state from which a
   bounded fresh-equivalent run succeeds. *)
let test_clear_after_livelock () =
  let spin sim =
    for pid = 0 to 1 do
      Sim.spawn sim pid (fun () ->
          let r = Sim.reg sim ~name:"spin" 0 in
          while true do
            Sim.write r pid
          done)
    done
  in
  let sim = Sim.create ~max_steps:10 ~n:2 () in
  spin sim;
  (match Sim.run sim (Policy.round_robin ()) with
  | () -> Alcotest.failf "expected Livelock"
  | exception Sim.Livelock _ -> ());
  Sim.clear sim;
  Alcotest.(check int) "clock rewound" 0 (Sim.clock sim);
  Alcotest.(check int) "objects dropped" 0 (Sim.objects_allocated sim);
  spin sim;
  Alcotest.(check int) "fibers re-armed" 2 (Sim.runnable_count sim);
  (* a bounded scripted prefix now behaves like a fresh sim's *)
  let script = [| 0; 0; 0; 1; 1 |] in
  let go sim =
    Sim.set_trace sim true;
    Sim.run sim (Policy.scripted ~strict:true script);
    Sim.trace sim
  in
  let cleared_trace = go sim in
  let fresh = Sim.create ~max_steps:10 ~n:2 () in
  spin fresh;
  let fresh_trace = go fresh in
  Alcotest.(check int) "prefix length" (List.length fresh_trace) (List.length cleared_trace);
  if cleared_trace <> fresh_trace then Alcotest.failf "post-livelock replay diverged"

(* Rewind after Process_failure: the failing run is deterministic,
   [Sim.clear] plus a second setup gives fresh object state (the
   register written before the raise), and the failure reproduces
   identically on the next run. *)
let test_clear_after_process_failure () =
  let sim = Sim.create ~n:2 () in
  Sim.set_trace sim true;
  let setup () =
    let r = Sim.reg sim ~name:"pf" 0 in
    Sim.spawn sim 0 (fun () ->
        Sim.write r 7;
        failwith "boom");
    Sim.spawn sim 1 (fun () ->
        (* the extra write happens iff the register holds its initial
           value, so state carried over from the failed run shows up as
           a missing trace event — and as Replay_drift under the strict
           script *)
        if Sim.read r = 0 then Sim.write r 1)
  in
  setup ();
  let observe () =
    match Sim.run sim (Policy.scripted ~strict:true [| 1; 1; 1; 0; 0 |]) with
    | () -> Alcotest.failf "expected Process_failure"
    | exception Sim.Process_failure (pid, e) ->
        (pid, Printexc.to_string e, Sim.clock sim, Sim.trace sim)
  in
  let (pid1, msg1, clock1, trace1) = observe () in
  Sim.clear sim;
  Alcotest.(check int) "clock rewound" 0 (Sim.clock sim);
  Alcotest.(check int) "trace cleared" 0 (List.length (Sim.trace sim));
  setup ();
  Alcotest.(check int) "fibers re-armed" 2 (Sim.runnable_count sim);
  let (pid2, msg2, clock2, trace2) = observe () in
  Alcotest.(check (triple int string int)) "failure reproduces" (pid1, msg1, clock1)
    (pid2, msg2, clock2);
  Alcotest.(check int) "trace length reproduces" (List.length trace1)
    (List.length trace2);
  if trace1 <> trace2 then Alcotest.failf "post-failure replay diverged"

(* gen_domains: two identical parallel-generation campaigns agree with
   each other, run the full budget, and merged obs counters are
   reproducible. *)
let test_gen_domains_determinism () =
  let n = 3 in
  let go () =
    let obs = Scs_obs.Obs.create ~n () in
    let r = Fuzz_run.fuzz ~runs:40 ~seed:1234 ~gen_domains:2 ~obs Fuzz_run.f1 ~n in
    (r, obs)
  in
  let (ra, oa) = go () in
  let (rb, ob) = go () in
  check_report_eq "gen-domains repeat" ra rb;
  Alcotest.(check int) "merged clock deterministic" (Scs_obs.Obs.clock oa)
    (Scs_obs.Obs.clock ob);
  Alcotest.(check int) "merged steps deterministic" (Scs_obs.Obs.total_steps oa)
    (Scs_obs.Obs.total_steps ob);
  List.iter
    (fun (s : Fuzz.policy_stats) ->
      Alcotest.(check int) ("full budget: " ^ s.Fuzz.s_policy) 40 s.s_runs)
    ra.Fuzz.r_stats

(* The shared fan-out: every run index lands in exactly one stream,
   stream sizes differ by at most one, and results come back in stream
   order whatever domain ran each stream. *)
let test_streams_split () =
  List.iter
    (fun runs ->
      List.iter
        (fun streams ->
          let l = Printf.sprintf "runs=%d streams=%d" runs streams in
          let got = Streams.run ~streams ~runs (fun d ~lo ~hi -> (d, lo, hi)) in
          Alcotest.(check int) (l ^ " one result per stream") streams (Array.length got);
          Array.iteri (fun i (d, _, _) -> Alcotest.(check int) (l ^ " stream order") i d) got;
          let hits = Array.make runs 0 in
          Array.iter
            (fun (_, lo, hi) ->
              for r = lo to hi - 1 do
                hits.(r) <- hits.(r) + 1
              done)
            got;
          Array.iteri
            (fun r h -> Alcotest.(check int) (Printf.sprintf "%s run %d covered once" l r) 1 h)
            hits;
          let sizes = Array.map (fun (_, lo, hi) -> hi - lo) got in
          let mx = Array.fold_left max min_int sizes and mn = Array.fold_left min max_int sizes in
          if mx - mn > 1 then Alcotest.failf "%s: stream sizes %d..%d" l mn mx)
        [ 1; 2; 3; 5 ])
    [ 0; 1; 7; 20 ]

(* Obs_run's parallel path: two batches split over two streams with one
   seed aggregate identically. *)
let test_obs_run_gen_domains_determinism () =
  List.iter
    (fun (target, crash_prob) ->
      let go () = Obs_run.measure ~runs:40 ~seed:5 ~crash_prob ~gen_domains:2 target ~n:3 in
      let a = go () and b = go () in
      let l = Obs_run.target_name target in
      Alcotest.(check int) (l ^ " runs") 40 a.Obs_run.runs;
      Alcotest.(check int) (l ^ " runs repeat") a.runs b.Obs_run.runs;
      if a.ops <> b.ops then Alcotest.failf "%s: op metrics differ between repeats" l;
      Alcotest.(check int) (l ^ " max interval contention") a.max_interval_contention
        b.max_interval_contention;
      Alcotest.(check int) (l ^ " aborts") a.aborts b.aborts;
      Alcotest.(check int) (l ^ " handoffs") a.handoffs b.handoffs;
      Alcotest.(check int) (l ^ " crashes") a.crashes b.crashes;
      Alcotest.(check (list (triple string int int))) (l ^ " object census") a.objects
        b.objects)
    [
      (Obs_run.Tas Tas_run.Composed, 0.3);
      (Obs_run.Cons Cons_run.Chain3, 0.0);
      (Obs_run.Shard, 0.3);
    ]

let tests =
  [
    Alcotest.test_case "pooled vs fresh: reports and violations" `Slow
      test_pooled_vs_fresh_reports;
    Alcotest.test_case "pooled vs fresh: every schedule bit-identical" `Quick
      test_pooled_vs_fresh_every_schedule;
    Alcotest.test_case "pooled vs fresh: obs counters" `Quick test_pooled_vs_fresh_obs;
    Alcotest.test_case "Obs_run batch vs fresh: every target" `Quick test_obs_run_vs_fresh;
    Alcotest.test_case "reset recovers after Livelock" `Quick test_clear_after_livelock;
    Alcotest.test_case "reset recovers after Process_failure" `Quick
      test_clear_after_process_failure;
    Alcotest.test_case "gen domains: deterministic parallel generation" `Quick
      test_gen_domains_determinism;
    Alcotest.test_case "streams: every run in one stream, sizes within 1, stream order"
      `Quick test_streams_split;
    Alcotest.test_case "Obs_run gen domains: deterministic parallel batches" `Quick
      test_obs_run_gen_domains_determinism;
  ]
