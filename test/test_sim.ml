(* Tests for the deterministic simulator: scheduling, accounting,
   contention detection, crash injection, exhaustive exploration. *)

open Scs_util
open Scs_sim

let test_solo_run () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let done0 = ref false in
  Sim.spawn sim 0 (fun () ->
      Sim.write r 41;
      let v = Sim.read r in
      Sim.write r (v + 1);
      done0 := true);
  Sim.spawn sim 1 (fun () -> Sim.write r 0);
  Sim.run sim (Policy.solo 0);
  Alcotest.(check bool) "p0 finished" true !done0;
  Alcotest.(check bool) "p1 never ran" true (Sim.is_runnable sim 1);
  Alcotest.(check int) "p0 steps" 3 (Sim.steps_of sim 0);
  Alcotest.(check int) "p1 steps" 0 (Sim.steps_of sim 1)

let test_round_robin_interleaves () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" [] in
  let log = ref [] in
  let proc pid () =
    for _ = 1 to 3 do
      let v = Sim.read r in
      Sim.write r (pid :: v);
      log := pid :: !log
    done
  in
  Sim.spawn sim 0 (proc 0);
  Sim.spawn sim 1 (proc 1);
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check bool) "both done" true (Sim.all_done sim);
  Alcotest.(check int) "total steps" 12 (Sim.total_steps sim)

let test_register_semantics () =
  let sim = Sim.create ~n:1 () in
  let r = Sim.reg sim ~name:"r" "init" in
  let seen = ref [] in
  Sim.spawn sim 0 (fun () ->
      seen := Sim.read r :: !seen;
      Sim.write r "x";
      seen := Sim.read r :: !seen);
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check (list string)) "reads" [ "x"; "init" ] !seen

let test_tas_semantics () =
  let sim = Sim.create ~n:1 () in
  let t = Sim.tas_obj sim ~name:"t" () in
  let results = ref [] in
  Sim.spawn sim 0 (fun () ->
      results := Sim.test_and_set t :: !results;
      results := Sim.test_and_set t :: !results;
      Sim.tas_reset t;
      results := Sim.test_and_set t :: !results);
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check (list bool)) "tas semantics" [ true; false; true ] !results

let test_cas_semantics () =
  let sim = Sim.create ~n:1 () in
  let c = Sim.cas_obj sim ~name:"c" None in
  let results = ref [] in
  Sim.spawn sim 0 (fun () ->
      let some1 = Some 1 in
      results := Sim.compare_and_swap c ~expect:None ~update:some1 :: !results;
      results := Sim.compare_and_swap c ~expect:None ~update:(Some 2) :: !results;
      results := Sim.compare_and_swap c ~expect:some1 ~update:(Some 3) :: !results);
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check (list bool)) "cas semantics" [ true; false; true ] !results

let test_fai_semantics () =
  let sim = Sim.create ~n:1 () in
  let f = Sim.fai_obj sim ~name:"f" 5 in
  let results = ref [] in
  Sim.spawn sim 0 (fun () ->
      results := Sim.fetch_and_inc f :: !results;
      results := Sim.fetch_and_inc f :: !results;
      results := Sim.fai_read f :: !results);
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check (list int)) "fai" [ 7; 6; 5 ] !results

let test_fence_accounting () =
  let sim = Sim.create ~n:1 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let t = Sim.tas_obj sim ~name:"t" () in
  Sim.spawn sim 0 (fun () ->
      Sim.write r 1;
      (* write *)
      ignore (Sim.read r);
      (* read-after-write: 1 RAW *)
      ignore (Sim.read r);
      (* clean read: no fence *)
      Sim.write r 2;
      ignore (Sim.test_and_set t);
      (* RMW clears the dirty bit: 1 AWAR *)
      ignore (Sim.read r)
      (* read after rmw: no RAW *));
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check int) "raw fences" 1 (Sim.raw_fences_of sim 0);
  Alcotest.(check int) "rmws" 1 (Sim.rmws_of sim 0)

let test_crash () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let p1_done = ref false in
  Sim.spawn sim 0 (fun () ->
      for i = 1 to 10 do
        Sim.write r i
      done);
  Sim.spawn sim 1 (fun () ->
      Sim.write r 100;
      p1_done := true);
  Sim.run ~crashes:[ Crash.terminal ~pid:0 ~at:3 ] sim (Policy.round_robin ());
  Alcotest.(check bool) "p1 completed" true !p1_done;
  Alcotest.(check bool) "p0 crashed" true (Sim.finished sim 0);
  Alcotest.(check bool) "p0 stopped at 3" true (Sim.steps_of sim 0 <= 4)

let test_livelock_guard () =
  let sim = Sim.create ~max_steps:100 ~n:1 () in
  let r = Sim.reg sim ~name:"r" 0 in
  Sim.spawn sim 0 (fun () ->
      while true do
        ignore (Sim.read r)
      done);
  Alcotest.check_raises "livelock" (Sim.Livelock "step budget 100 exhausted at clock 101")
    (fun () -> Sim.run sim (Policy.round_robin ()))

let test_process_failure_propagates () =
  let sim = Sim.create ~n:1 () in
  let r = Sim.reg sim ~name:"r" 0 in
  Sim.spawn sim 0 (fun () ->
      ignore (Sim.read r);
      failwith "boom");
  (match Sim.run sim (Policy.round_robin ()) with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Process_failure (0, Failure msg) ->
      Alcotest.(check string) "message" "boom" msg
  | exception e -> raise e);
  Alcotest.(check bool) "done" true (Sim.all_done sim)

let test_scripted_policy () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" [] in
  let proc pid () =
    let v = Sim.read r in
    Sim.write r (pid :: v)
  in
  Sim.spawn sim 0 (proc 0);
  Sim.spawn sim 1 (proc 1);
  (* first turn only sets up the first op; steps happen on later turns *)
  Sim.run sim (Policy.scripted [| 0; 1; 0; 0; 1; 1 |]);
  Alcotest.(check bool) "all done" true (Sim.all_done sim)

let test_sequential_policy () =
  let sim = Sim.create ~n:3 () in
  let r = Sim.reg sim ~name:"r" [] in
  let proc pid () =
    let v = Sim.read r in
    Sim.write r (pid :: v)
  in
  for i = 0 to 2 do
    Sim.spawn sim i (proc i)
  done;
  Sim.run sim (Policy.sequential ());
  Alcotest.(check bool) "done" true (Sim.all_done sim);
  Alcotest.(check int) "steps" 6 (Sim.total_steps sim)

let test_trace_recording () =
  let sim = Sim.create ~n:1 () in
  Sim.set_trace sim true;
  let r = Sim.reg sim ~name:"myreg" 0 in
  Sim.spawn sim 0 (fun () ->
      Sim.write r 1;
      ignore (Sim.read r));
  Sim.run sim (Policy.round_robin ());
  let tr = Sim.trace sim in
  Alcotest.(check int) "two events" 2 (List.length tr);
  match tr with
  | [ e1; e2 ] ->
      Alcotest.(check string) "name" "myreg" e1.Mem_event.obj_name;
      Alcotest.(check bool) "kinds" true
        (e1.Mem_event.kind = Op.Write && e2.Mem_event.kind = Op.Read)
  | _ -> Alcotest.fail "unexpected trace"

let test_object_census () =
  let sim = Sim.create ~n:1 () in
  ignore (Sim.reg sim ~name:"a" 0);
  ignore (Sim.reg sim ~name:"b" 0);
  ignore (Sim.tas_obj sim ~name:"t" ());
  ignore (Sim.cas_obj sim ~name:"c" 0);
  Alcotest.(check int) "objects" 4 (Sim.objects_allocated sim);
  Alcotest.(check int) "rmw objects" 2 (Sim.rmw_objects_allocated sim)

let test_detect_step_contention () =
  let events =
    [|
      { Mem_event.ts = 1; pid = 0; kind = Op.Read; obj = 1; obj_name = "r"; info = "" };
      { Mem_event.ts = 2; pid = 1; kind = Op.Read; obj = 1; obj_name = "r"; info = "" };
      { Mem_event.ts = 3; pid = 0; kind = Op.Write; obj = 1; obj_name = "r"; info = "" };
    |]
  in
  let iv = { Detect.pid = 0; start_ts = 0; end_ts = 3 } in
  Alcotest.(check bool) "contended" true (Detect.step_contended events iv);
  let iv_solo = { Detect.pid = 0; start_ts = 2; end_ts = 3 } in
  Alcotest.(check bool) "not contended" false (Detect.step_contended events iv_solo)

let test_detect_overlap () =
  let a = { Detect.pid = 0; start_ts = 0; end_ts = 5 } in
  let b = { Detect.pid = 1; start_ts = 4; end_ts = 9 } in
  let c = { Detect.pid = 1; start_ts = 5; end_ts = 9 } in
  Alcotest.(check bool) "overlap" true (Detect.overlap a b);
  Alcotest.(check bool) "touching intervals do not overlap" false (Detect.overlap a c);
  Alcotest.(check bool) "same pid never overlaps" false
    (Detect.overlap a { Detect.pid = 0; start_ts = 0; end_ts = 9 })

let test_explore_counts_interleavings () =
  (* two processes, one memory op each: exactly C(2,1) = 2 schedules *)
  let setup sim =
    let r = Sim.reg sim ~name:"r" 0 in
    Sim.spawn sim 0 (fun () -> Sim.write r 1);
    Sim.spawn sim 1 (fun () -> Sim.write r 2)
  in
  let outcome = Explore.exhaustive ~n:2 ~setup ~check:(fun _ _ -> ()) () in
  (* each process takes 2 turns (setup + op), schedules = interleavings of
     [0;0] and [1;1] = C(4,2) = 6 *)
  Alcotest.(check bool) "explored several" true (outcome.Explore.schedules >= 2);
  Alcotest.(check bool) "not truncated" false outcome.Explore.truncated

let test_explore_finds_race () =
  (* a classic lost-update race must be exhibited by some interleaving *)
  let results = Array.make 2 0 in
  let setup sim =
    Array.fill results 0 2 0;
    let r = Sim.reg sim ~name:"r" 0 in
    let incr_proc pid () =
      let v = Sim.read r in
      Sim.write r (v + 1);
      results.(pid) <- v + 1
    in
    Sim.spawn sim 0 (incr_proc 0);
    Sim.spawn sim 1 (incr_proc 1)
  in
  let lost = ref 0 and clean = ref 0 in
  let check _ _ = if results.(0) = results.(1) then incr lost else incr clean in
  let outcome = Explore.exhaustive ~n:2 ~setup ~check () in
  Alcotest.(check bool) "explored all" false outcome.Explore.truncated;
  Alcotest.(check bool) "race exhibited" true (!lost > 0);
  Alcotest.(check bool) "clean schedules too" true (!clean > 0)

let test_sticky_policy_runs () =
  let rng = Rng.create 5 in
  let sim = Sim.create ~n:3 () in
  let r = Sim.reg sim ~name:"r" 0 in
  for pid = 0 to 2 do
    Sim.spawn sim pid (fun () ->
        for _ = 1 to 5 do
          let v = Sim.read r in
          Sim.write r (v + 1)
        done)
  done;
  Sim.run sim (Policy.sticky rng ~switch_prob:0.3);
  Alcotest.(check bool) "all done" true (Sim.all_done sim);
  Alcotest.(check int) "steps" 30 (Sim.total_steps sim)

let test_swap_semantics () =
  let sim = Sim.create ~n:1 () in
  let s = Sim.swap_obj sim ~name:"s" 0 in
  let results = ref [] in
  Sim.spawn sim 0 (fun () ->
      results := Sim.swap s 1 :: !results;
      results := Sim.swap s 2 :: !results;
      results := Sim.swap_read s :: !results);
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check (list int)) "swap returns old" [ 2; 1; 0 ] !results;
  Alcotest.(check int) "swap counted as RMW" 2 (Sim.rmws_of sim 0);
  Alcotest.(check int) "swap obj in census" 1 (Sim.rmw_objects_allocated sim)

let test_weighted_policy () =
  let rng = Rng.create 3 in
  let sim = Sim.create ~n:3 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let counts = Array.make 3 0 in
  for pid = 0 to 2 do
    Sim.spawn sim pid (fun () ->
        for _ = 1 to 20 do
          counts.(pid) <- counts.(pid) + 1;
          Sim.write r pid
        done)
  done;
  (* pid 2 has weight zero: it must never run *)
  Sim.run sim (Policy.stop_when Sim.all_done (Policy.weighted rng [| 1.0; 3.0; 0.0 |]));
  Alcotest.(check int) "weight-0 never ran" 0 (Sim.steps_of sim 2);
  Alcotest.(check bool) "others progressed" true (Sim.steps_of sim 0 > 0 && Sim.steps_of sim 1 > 0)

let test_pause_counts_as_turn () =
  let sim = Sim.create ~max_steps:50 ~n:1 () in
  Sim.spawn sim 0 (fun () ->
      for _ = 1 to 5 do
        Sim.pause sim
      done);
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check int) "pauses consumed clock" 5 (Sim.clock sim)

(* A sweep past the cap raises [Invalid_argument] in [Sim.create] and
   stops a bare [scs experiment] at that table. *)
let test_experiment_sweeps_within_cap () =
  List.iter
    (fun (e : Scs_experiments.Registry.t) ->
      List.iter
        (fun n ->
          if n > Sim.max_processes then
            Alcotest.failf "%s sweeps n = %d, past the %d-process cap" e.Scs_experiments.Registry.id
              n Sim.max_processes)
        e.Scs_experiments.Registry.ns)
    Scs_experiments.Registry.all

let tests =
  [
    Alcotest.test_case "solo run" `Quick test_solo_run;
    Alcotest.test_case "round robin interleaves" `Quick test_round_robin_interleaves;
    Alcotest.test_case "register semantics" `Quick test_register_semantics;
    Alcotest.test_case "tas semantics" `Quick test_tas_semantics;
    Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
    Alcotest.test_case "fai semantics" `Quick test_fai_semantics;
    Alcotest.test_case "fence accounting" `Quick test_fence_accounting;
    Alcotest.test_case "crash injection" `Quick test_crash;
    Alcotest.test_case "livelock guard" `Quick test_livelock_guard;
    Alcotest.test_case "process failure propagates" `Quick test_process_failure_propagates;
    Alcotest.test_case "scripted policy" `Quick test_scripted_policy;
    Alcotest.test_case "sequential policy" `Quick test_sequential_policy;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
    Alcotest.test_case "object census" `Quick test_object_census;
    Alcotest.test_case "detect step contention" `Quick test_detect_step_contention;
    Alcotest.test_case "detect overlap" `Quick test_detect_overlap;
    Alcotest.test_case "explore counts interleavings" `Quick test_explore_counts_interleavings;
    Alcotest.test_case "explore exhibits races" `Quick test_explore_finds_race;
    Alcotest.test_case "sticky policy" `Quick test_sticky_policy_runs;
    Alcotest.test_case "swap semantics" `Quick test_swap_semantics;
    Alcotest.test_case "weighted policy" `Quick test_weighted_policy;
    Alcotest.test_case "pause counts as turn" `Quick test_pause_counts_as_turn;
    Alcotest.test_case "experiment sweeps within the process cap" `Quick
      test_experiment_sweeps_within_cap;
  ]
