(* Unit coverage for the schedule policies (lib/sim/policy.ml), the
   scheduling loop's edges (Sim.run) and the contention-class detectors
   (lib/sim/detect.ml). *)

open Scs_sim
open Scs_util

(* a simulator where process [pid] performs [work.(pid)] register reads
   (= memory steps), so turn counts are fully predictable *)
let make_sim work =
  let n = Array.length work in
  let sim = Sim.create ~n () in
  let r = Sim.reg sim ~name:"r" 0 in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        for _ = 1 to work.(pid) do
          ignore (Sim.read r)
        done)
  done;
  sim

let run_captured ?crashes sim policy =
  let buf = Vec.create () in
  Sim.run ~capture:buf ?crashes sim policy;
  Vec.to_array buf

(* ---- weighted --------------------------------------------------------- *)

let test_weighted_zero_weight_never_runs () =
  let sim = make_sim [| 5; 5; 5 |] in
  let sched = run_captured sim (Policy.weighted (Rng.create 7) [| 1.0; 0.0; 1.0 |]) in
  Array.iter
    (fun p -> if p = 1 then Alcotest.fail "zero-weight pid was scheduled")
    sched;
  Alcotest.(check bool) "p0 finished" true (Sim.finished sim 0);
  Alcotest.(check bool) "p2 finished" true (Sim.finished sim 2);
  Alcotest.(check int) "p1 never moved" 0 (Sim.steps_of sim 1)

let test_weighted_stops_when_only_zero_weight_runnable () =
  let sim = make_sim [| 3; 3 |] in
  let sched = run_captured sim (Policy.weighted (Rng.create 7) [| 1.0; 0.0 |]) in
  (* p0 runs to completion, then the policy must answer Stop rather than
     schedule the zero-weight p1 *)
  Alcotest.(check bool) "p0 finished" true (Sim.finished sim 0);
  Alcotest.(check bool) "p1 unfinished" false (Sim.finished sim 1);
  Array.iter (fun p -> Alcotest.(check int) "only p0 scheduled" 0 p) sched

let test_weighted_never_schedules_crashed () =
  let sim = make_sim [| 8; 8; 8 |] in
  ignore
    (run_captured ~crashes:[ Crash.terminal ~pid:0 ~at:2 ] sim
       (Policy.weighted (Rng.create 11) [| 10.0; 1.0; 1.0 |]));
  (* heavily-weighted p0 crashes after 2 steps and must never be picked
     again, despite its weight *)
  Alcotest.(check int) "p0 stopped at its crash point" 2 (Sim.steps_of sim 0);
  Alcotest.(check bool) "p1 finished" true (Sim.finished sim 1);
  Alcotest.(check bool) "p2 finished" true (Sim.finished sim 2)

(* ---- sticky ----------------------------------------------------------- *)

let test_sticky_switch_rate () =
  (* With both processes runnable, sticky re-picks with probability p and
     the re-pick lands on the other process with probability (n-1)/n, so
     observed switch rate ≈ p/2 at n = 2. *)
  let p = 0.3 in
  let work = 1600 in
  let sim = make_sim [| work + 1; work + 1 |] in
  let sched = run_captured sim (Policy.sticky (Rng.create 5) ~switch_prob:p) in
  let window = min (2 * work) (Array.length sched) in
  let switches = ref 0 in
  for i = 1 to window - 1 do
    if sched.(i) <> sched.(i - 1) then incr switches
  done;
  let rate = float_of_int !switches /. float_of_int (window - 1) in
  let expected = p /. 2.0 in
  if Float.abs (rate -. expected) > 0.05 then
    Alcotest.failf "switch rate %.3f too far from %.3f%s" rate expected Test_seed.label

let test_sticky_zero_never_switches () =
  let sim = make_sim [| 4; 4 |] in
  let sched = run_captured sim (Policy.sticky (Rng.create 3) ~switch_prob:0.0) in
  (* one block per process: a switch only happens when the current
     process finishes *)
  let blocks = ref 1 in
  Array.iteri (fun i p -> if i > 0 && p <> sched.(i - 1) then incr blocks) sched;
  Alcotest.(check int) "two contiguous blocks" 2 !blocks

(* ---- crash injection --------------------------------------------------- *)

let test_crashes_fire_at_configured_step () =
  let sim = make_sim [| 10; 10; 10 |] in
  Sim.run ~crashes:(Crash.of_pairs [ (0, 3); (1, 5) ]) sim (Policy.random (Rng.create 9));
  (* a crash fires at the first turn boundary after the pid reaches k
     steps, so the pid takes exactly k memory steps *)
  Alcotest.(check int) "p0 crashed after 3 steps" 3 (Sim.steps_of sim 0);
  Alcotest.(check int) "p1 crashed after 5 steps" 5 (Sim.steps_of sim 1);
  Alcotest.(check int) "p2 ran to completion" 10 (Sim.steps_of sim 2);
  Alcotest.(check bool) "p0 not runnable" false (Sim.is_runnable sim 0);
  Alcotest.(check bool) "p1 not runnable" false (Sim.is_runnable sim 1)

let test_crash_after_completion_is_noop () =
  let sim = make_sim [| 4; 4 |] in
  Sim.run ~crashes:[ Crash.terminal ~pid:0 ~at:100 ] sim (Policy.random (Rng.create 2));
  Alcotest.(check bool) "all done" true (Sim.all_done sim);
  Alcotest.(check int) "p0 completed its work" 4 (Sim.steps_of sim 0)

(* ---- pct -------------------------------------------------------------- *)

let test_pct_deterministic_and_replayable () =
  let capture seed =
    let sim = make_sim [| 6; 6; 6; 6 |] in
    run_captured sim (Policy.pct (Rng.create seed) ~k:3 ~depth:40)
  in
  let s1 = capture 17 and s2 = capture 17 in
  Alcotest.(check (array int)) "same seed, same schedule" s1 s2;
  (* and the capture replays strictly against a fresh sim *)
  let sim = make_sim [| 6; 6; 6; 6 |] in
  Sim.run sim (Policy.scripted ~strict:true s1);
  Alcotest.(check bool) "replay is maximal" true (Sim.all_done sim)

let test_pct_without_change_points_runs_priority_blocks () =
  (* k = 1 means no priority changes: the highest-priority process runs
     to completion, then the next — each pid forms one contiguous block *)
  let sim = make_sim [| 5; 5; 5 |] in
  let sched = run_captured sim (Policy.pct (Rng.create 23) ~k:1 ~depth:40) in
  let blocks = ref 1 in
  Array.iteri (fun i p -> if i > 0 && p <> sched.(i - 1) then incr blocks) sched;
  Alcotest.(check int) "three contiguous blocks" 3 !blocks;
  Alcotest.(check bool) "maximal" true (Sim.all_done sim)

let test_pct_at_most_k_minus_1_preemptions () =
  (* every block boundary that is not a process completion must come from
     one of the k - 1 priority change points *)
  let k = 3 in
  let sim = make_sim [| 8; 8; 8 |] in
  let sched = run_captured sim (Policy.pct (Rng.create 31) ~k ~depth:24) in
  let seen = Hashtbl.create 8 in
  let preemptions = ref 0 in
  Array.iteri
    (fun i p ->
      Hashtbl.replace seen p (1 + Option.value ~default:0 (Hashtbl.find_opt seen p));
      if i > 0 && p <> sched.(i - 1) && Hashtbl.find seen sched.(i - 1) < 9 then
        (* 9 turns = 8 reads + 1 spawn turn; fewer means it was preempted *)
        incr preemptions)
    sched;
  Alcotest.(check bool)
    (Printf.sprintf "%d preemptions <= k-1" !preemptions)
    true
    (!preemptions <= k - 1)

(* ---- scripted strictness ---------------------------------------------- *)

let test_scripted_lenient_skips () =
  (* each process needs 2 turns (advance-to-op + the read); the third 0 in
     the script hits a finished p0 and is skipped silently *)
  let sim = make_sim [| 1; 1 |] in
  let sched = run_captured sim (Policy.scripted [| 0; 0; 0; 1; 1 |]) in
  Alcotest.(check (array int)) "executed schedule drifted" [| 0; 0; 1; 1 |] sched;
  Alcotest.(check bool) "maximal" true (Sim.all_done sim)

let test_scripted_strict_raises () =
  let sim = make_sim [| 1; 1 |] in
  Alcotest.check_raises "drift detected" (Policy.Replay_drift 0) (fun () ->
      Sim.run sim (Policy.scripted ~strict:true [| 0; 0; 0; 1; 1 |]))

let test_scripted_then_strict_raises () =
  let sim = make_sim [| 1; 1 |] in
  Alcotest.check_raises "drift detected" (Policy.Replay_drift 0) (fun () ->
      Sim.run sim
        (Policy.scripted_then ~strict:true [| 0; 0; 0 |] (Policy.sequential ())))

let test_explore_drift_is_policy_drift () =
  (* the explorer's drift exception is the same exception *)
  Alcotest.(check bool) "aliased" true
    (match Explore.Replay_drift 3 with Policy.Replay_drift 3 -> true | _ -> false)

(* ---- seed-stream pins ------------------------------------------------- *)

(* The first 64 picks of each randomized policy, recorded when boxed and
   allocation-free policies still coexisted (they agreed on every row).
   A change here silently renames every fuzz seed and recorded run, so
   it must be deliberate. Weights are 1, 2, 4, ...; pct uses the fuzz
   portfolio's depth 16n. *)
let pins =
  [
    ("random", 3, 1, "0201220121221202120010222120122101200122211011222222001112121220");
    ("sticky", 3, 1, "0000000000000001111002222222222222222000022200011112222222222222");
    ("weighted", 3, 1, "2222222212122221222200201022022212122222221222112210121021222022");
    ("pct", 3, 1, "0000000000000000000000000000000111111111111122222222222222222222");
    ("random", 3, 7, "2001000221110101110122102002011222112011210200100011212120012212");
    ("sticky", 3, 7, "2000001111111111111112222222201111000000001122222222222222222220");
    ("weighted", 3, 7, "1022212101022222212220112201212011220211221001222221012121221121");
    ("pct", 3, 7, "2222222222222222222000000000000000000000000011111111111111111111");
    ("random", 3, 1234, "2012100222010122221111210002212221020112111221010120212201222222");
    ("sticky", 3, 1234, "2222222211111111111111112222211111111111122202222222222111111111");
    ("weighted", 3, 1234, "2211222112012222221211002222101022221222201212221120222100020111");
    ("pct", 3, 1234, "2222222222200000000000000000000000001111111111111111111111111111");
    ("random", 5, 1, "2131213013320424241014114413123442120311010040432132412402142430");
    ("sticky", 5, 1, "2222222222222222222444112222222222222000022244401113333333333333");
    ("weighted", 5, 1, "4443344434343432444411423144144433344444443444324432343142444144");
    ("pct", 5, 1, "0000000000000000033333333333333333333333333333333333333333444444");
    ("random", 5, 7, "3440004301343232024304413310310034333221034021431331331323113231");
    ("sticky", 5, 7, "3444441444444444444440000333321111222222223322222222222222233330");
    ("weighted", 5, 7, "3044333323244444434442334413434133441422443113444443134243443343");
    ("pct", 5, 7, "2222222222244444444444444444444444444444444444444444444444444444");
    ("random", 5, 1234, "2110111343343103010143242433200331331211012243324133311343010213");
    ("sticky", 5, 1234, "2200004444444441114444440333322222222221133340022222222111100000");
    ("weighted", 5, 1234, "4423444334234444442433023444312244442444403434443342444201140333");
    ("pct", 5, 1234, "1100000000000000000000444444444444444444444444444444444444444444");
  ]

let test_seed_stream_pins () =
  List.iter
    (fun (name, n, seed, expected) ->
      let rng = Rng.create seed in
      let policy =
        match name with
        | "random" -> Policy.random rng
        | "sticky" -> Policy.sticky rng ~switch_prob:0.25
        | "weighted" -> Policy.weighted rng (Array.init n (fun p -> float_of_int (1 lsl p)))
        | _ -> Policy.pct rng ~k:3 ~depth:(16 * n)
      in
      let buf = Vec.create () in
      let first64 = Policy.stop_when (fun _ -> Vec.length buf >= 64) policy in
      Sim.run ~capture:buf (make_sim (Array.make n 100)) first64;
      let got = String.concat "" (List.map string_of_int (Vec.to_list buf)) in
      Alcotest.(check string) (Printf.sprintf "%s n=%d seed=%d" name n seed) expected got)
    pins

(* ---- loop edges ------------------------------------------------------- *)

(* Nothing runnable, but not every process done: an unspawned process
   never becomes runnable, so the loop stops without consulting the
   policy — script entries naming it are left unread, no drift. *)
let test_loop_stops_when_nothing_runnable () =
  let sim = Sim.create ~n:2 () in
  Sim.spawn sim 0 (fun () -> ignore (Sim.read (Sim.reg sim ~name:"r" 0)));
  let sched = run_captured sim (Policy.scripted ~strict:true [| 0; 0; 1; 1 |]) in
  Alcotest.(check (array int)) "p0's two turns, then stop" [| 0; 0 |] sched;
  Alcotest.(check bool) "p1 never spawned" false (Sim.finished sim 1)

(* A crash that empties the runnable set fires at a turn boundary, and
   the policy is still consulted on that turn: a strict script with
   entries left drifts, an exhausted one stops (and the recovery stays
   pending — test_recovery.ml's solo-crash case). *)
let test_crash_emptying_runnable_consults_policy () =
  let run script =
    let sim = make_sim [| 5 |] in
    Sim.run ~crashes:[ Crash.terminal ~pid:0 ~at:1 ] sim (Policy.scripted ~strict:true script);
    sim
  in
  let sim = run [| 0; 0 |] in
  Alcotest.(check int) "crashed after one step" 1 (Sim.steps_of sim 0);
  Alcotest.(check bool) "crashed" true (Sim.is_crashed sim 0);
  Alcotest.check_raises "entries left: drift" (Policy.Replay_drift 0) (fun () ->
      ignore (run [| 0; 0; 0 |]))

(* ---- detectors -------------------------------------------------------- *)

let ev ~ts ~pid = { Mem_event.ts; pid; kind = Op.Read; obj = 0; obj_name = "r"; info = "" }

let test_step_contention_detector () =
  let events = [| ev ~ts:1 ~pid:0; ev ~ts:2 ~pid:0; ev ~ts:3 ~pid:1; ev ~ts:5 ~pid:0 |] in
  let iv = { Detect.pid = 0; start_ts = 2; end_ts = 4 } in
  Alcotest.(check bool) "p1's step at ts=3 contends" true (Detect.step_contended events iv);
  let iv0 = { Detect.pid = 0; start_ts = 0; end_ts = 2 } in
  Alcotest.(check bool) "own steps don't contend" false (Detect.step_contended events iv0);
  let iv1 = { Detect.pid = 0; start_ts = 3; end_ts = 5 } in
  Alcotest.(check bool) "start boundary is exclusive" false
    (Detect.step_contended events iv1);
  Alcotest.(check int) "own steps within (0,2]" 2 (Detect.steps_within events iv0)

let test_interval_contention_detector () =
  let a = { Detect.pid = 0; start_ts = 0; end_ts = 5 } in
  let b = { Detect.pid = 1; start_ts = 3; end_ts = 8 } in
  let c = { Detect.pid = 2; start_ts = 6; end_ts = 9 } in
  Alcotest.(check bool) "overlapping intervals" true (Detect.overlap a b);
  Alcotest.(check bool) "disjoint intervals" false (Detect.overlap a c);
  Alcotest.(check bool) "contended by b" true (Detect.interval_contended [ a; b; c ] a);
  Alcotest.(check bool) "c only overlaps b" true (Detect.interval_contended [ a; b; c ] c);
  Alcotest.(check bool) "alone is uncontended" false (Detect.interval_contended [ a ] a);
  (* same pid never contends with itself *)
  let a' = { Detect.pid = 0; start_ts = 2; end_ts = 7 } in
  Alcotest.(check bool) "same-pid overlap ignored" false
    (Detect.interval_contended [ a; a' ] a)

let tests =
  [
    Alcotest.test_case "weighted: zero weight never runs" `Quick
      test_weighted_zero_weight_never_runs;
    Alcotest.test_case "weighted: stops on zero-weight remainder" `Quick
      test_weighted_stops_when_only_zero_weight_runnable;
    Alcotest.test_case "weighted: crashed pid never re-scheduled" `Quick
      test_weighted_never_schedules_crashed;
    Alcotest.test_case "sticky: switch rate tracks switch_prob" `Quick
      test_sticky_switch_rate;
    Alcotest.test_case "sticky: switch_prob 0 never preempts" `Quick
      test_sticky_zero_never_switches;
    Alcotest.test_case "crashes: fire once at the configured step" `Quick
      test_crashes_fire_at_configured_step;
    Alcotest.test_case "crashes: post-completion crash is a no-op" `Quick
      test_crash_after_completion_is_noop;
    Alcotest.test_case "pct: deterministic and strictly replayable" `Quick
      test_pct_deterministic_and_replayable;
    Alcotest.test_case "pct: k=1 runs pure priority blocks" `Quick
      test_pct_without_change_points_runs_priority_blocks;
    Alcotest.test_case "pct: at most k-1 preemptions" `Quick
      test_pct_at_most_k_minus_1_preemptions;
    Alcotest.test_case "scripted: lenient mode skips silently" `Quick
      test_scripted_lenient_skips;
    Alcotest.test_case "scripted: strict mode raises Replay_drift" `Quick
      test_scripted_strict_raises;
    Alcotest.test_case "scripted_then: strict mode raises Replay_drift" `Quick
      test_scripted_then_strict_raises;
    Alcotest.test_case "Explore.Replay_drift aliases Policy.Replay_drift" `Quick
      test_explore_drift_is_policy_drift;
    Alcotest.test_case "seed streams: first 64 picks pinned" `Quick test_seed_stream_pins;
    Alcotest.test_case "loop: stops when nothing is runnable" `Quick
      test_loop_stops_when_nothing_runnable;
    Alcotest.test_case "loop: crash emptying the runnable set" `Quick
      test_crash_emptying_runnable_consults_policy;
    Alcotest.test_case "detect: step contention on hand-built trace" `Quick
      test_step_contention_detector;
    Alcotest.test_case "detect: interval contention on hand-built trace" `Quick
      test_interval_contention_detector;
  ]
