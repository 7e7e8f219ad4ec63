(* Crash-recovery model tests: durable vs volatile registers, recovery
   re-admission, re-invocation traces, lane rendering, and the
   recoverable consensus workloads — including the pinned F-5 repro
   (volatile announcements break bakery agreement).

   The worked schedule walkthrough these tests pin down is documented in
   docs/recovery.md. *)

open Scs_sim
open Scs_history
open Scs_workload

let crash_t = Alcotest.testable Crash.pp Crash.equal

(* --- Crash event strings --------------------------------------------- *)

let test_crash_strings () =
  let cs = [ Crash.terminal ~pid:0 ~at:3; Crash.recovering ~pid:2 ~at:11 ~after:4 ] in
  Alcotest.(check string) "list to string" "0@3,2@11+4" (Crash.list_to_string cs);
  Alcotest.(check (option (list crash_t)))
    "round trip" (Some cs)
    (Crash.list_of_string (Crash.list_to_string cs));
  Alcotest.(check string) "empty list" "-" (Crash.list_to_string []);
  Alcotest.(check (option (list crash_t))) "dash is empty" (Some []) (Crash.list_of_string "-");
  Alcotest.(check (option crash_t)) "garbage" None (Crash.of_string "x");
  Alcotest.(check (option crash_t)) "missing at" None (Crash.of_string "1@");
  Alcotest.(check (option crash_t)) "double delay" None (Crash.of_string "1@2+3+4");
  Alcotest.(check (list crash_t))
    "canonical sorts and dedups"
    [ Crash.terminal ~pid:0 ~at:3; Crash.terminal ~pid:2 ~at:5 ]
    (Crash.canonical
       [ Crash.terminal ~pid:2 ~at:5; Crash.terminal ~pid:0 ~at:3; Crash.terminal ~pid:0 ~at:3 ]);
  Alcotest.(check (list crash_t))
    "of_pairs is terminal"
    [ Crash.terminal ~pid:1 ~at:2 ]
    (Crash.of_pairs [ (1, 2) ])

(* --- durable survives, volatile wiped -------------------------------- *)

(* p0 writes a durable and a volatile register, then crashes; p1 reads
   both afterwards. The durable value survives, the volatile one is back
   at its creation value. *)
let test_durable_volatile_litmus () =
  let sim = Sim.create ~n:2 () in
  let d = Sim.reg sim ~name:"d" 0 in
  let v = Sim.reg sim ~volatile:true ~name:"v" 0 in
  let seen = ref (-1, -1) in
  Sim.spawn sim 0 (fun () ->
      Sim.write d 1;
      Sim.write v 1;
      Sim.write d 2 (* never reached: crash fires at 2 steps *));
  Sim.spawn sim 1 (fun () -> seen := (Sim.read d, Sim.read v));
  Sim.run ~crashes:[ Crash.terminal ~pid:0 ~at:2 ] sim (Policy.sequential ());
  Alcotest.(check bool) "p0 crashed" true (Sim.is_crashed sim 0);
  Alcotest.(check (pair int int)) "durable kept, volatile wiped" (1, 0) !seen;
  Alcotest.(check int) "one volatile object" 1 (Sim.volatile_objects_allocated sim)

(* Every crash wipes every volatile object: p1's own volatile register is
   lost to p0's crash even though p1 never fails. *)
let test_global_wipe () =
  let sim = Sim.create ~n:2 () in
  let d = Sim.reg sim ~name:"d" 0 in
  let v = Sim.reg sim ~volatile:true ~name:"v" 0 in
  let seen = ref (-1) in
  Sim.spawn sim 0 (fun () ->
      Sim.write d 1;
      Sim.write d 2;
      Sim.write d 3);
  Sim.spawn sim 1 (fun () ->
      Sim.write v 5;
      seen := Sim.read v);
  (* round robin: p1 writes v between p0's steps; p0's crash at 2 steps
     wipes it before p1 reads it back *)
  Sim.run ~crashes:[ Crash.terminal ~pid:0 ~at:2 ] sim (Policy.round_robin ());
  Alcotest.(check int) "p1's volatile write gone" 0 !seen

(* --- recovery re-admission ------------------------------------------- *)

(* A recovering crash re-admits the registered recovery code only after
   the delay has elapsed on the global step clock. *)
let test_recovery_delay () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let crash_clock = ref (-1) in
  let recovery_clock = ref (-1) in
  Sim.set_recovery sim 0 (fun () ->
      recovery_clock := Sim.clock sim;
      Sim.write r 99);
  Sim.spawn sim 0 (fun () ->
      for k = 1 to 5 do
        Sim.write r k
      done);
  Sim.spawn sim 1 (fun () ->
      for _ = 1 to 20 do
        ignore (Sim.read r)
      done);
  let delay = 4 in
  let saw_crash = Policy.stop_when (fun sim ->
      if Sim.is_crashed sim 0 && !crash_clock < 0 then crash_clock := Sim.clock sim;
      false)
  in
  Sim.run ~crashes:[ Crash.recovering ~pid:0 ~at:2 ~after:delay ] sim
    (saw_crash (Policy.round_robin ()));
  Alcotest.(check bool) "recovery ran" true (!recovery_clock >= 0);
  Alcotest.(check bool) "crash observed" true (!crash_clock >= 0);
  Alcotest.(check bool)
    (Printf.sprintf "re-admitted no earlier than crash clock %d + %d (got %d)" !crash_clock
       delay !recovery_clock)
    true
    (!recovery_clock >= !crash_clock + delay);
  Alcotest.(check int) "one recovery" 1 (Sim.recoveries_of sim 0);
  Alcotest.(check int) "total recoveries" 1 (Sim.total_recoveries sim);
  Alcotest.(check bool) "no longer crashed" false (Sim.is_crashed sim 0)

(* If every other process finishes first, a pending recovery is admitted
   immediately rather than dead-locking the run on its delay. *)
let test_stalled_recovery_admitted () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let recovered = ref false in
  Sim.set_recovery sim 0 (fun () ->
      recovered := true;
      Sim.write r 99);
  Sim.spawn sim 0 (fun () ->
      for k = 1 to 5 do
        Sim.write r k
      done);
  Sim.spawn sim 1 (fun () ->
      (* outlives p0's crash so the stall is reached at a loop top,
         not at the crash decision itself (see the solo-crash test) *)
      for _ = 1 to 3 do
        ignore (Sim.read r)
      done);
  Sim.run ~crashes:[ Crash.recovering ~pid:0 ~at:2 ~after:1_000_000 ] sim
    (Policy.round_robin ());
  Alcotest.(check bool) "recovery admitted at stall" true !recovered;
  Alcotest.(check int) "one recovery" 1 (Sim.recoveries_of sim 0);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending_recoveries sim)

(* Documented edge: when the crash retires the last runnable process
   mid-decision, the run ends with the recovery still pending — crash
   placement decides whether the recovery gets to run at all. *)
let test_solo_crash_ends_run () =
  let sim = Sim.create ~n:1 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let recovered = ref false in
  Sim.set_recovery sim 0 (fun () -> recovered := true);
  Sim.spawn sim 0 (fun () ->
      for k = 1 to 5 do
        Sim.write r k
      done);
  Sim.run ~crashes:[ Crash.recovering ~pid:0 ~at:2 ~after:3 ] sim (Policy.round_robin ());
  Alcotest.(check bool) "recovery never ran" false !recovered;
  Alcotest.(check int) "recovery still pending" 1 (Sim.pending_recoveries sim)

(* Two recovering crashes on one process: the second interrupts the
   recovery code itself, which is then re-run from the start. *)
let test_double_crash_idempotent_recovery () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" 0 in
  let completed = ref 0 in
  Sim.set_recovery sim 0 (fun () ->
      Sim.write r 99;
      Sim.write r 100;
      incr completed);
  Sim.spawn sim 0 (fun () ->
      for k = 1 to 5 do
        Sim.write r k
      done);
  Sim.spawn sim 1 (fun () ->
      for _ = 1 to 40 do
        ignore (Sim.read r)
      done);
  Sim.run
    ~crashes:[ Crash.recovering ~pid:0 ~at:2 ~after:0; Crash.recovering ~pid:0 ~at:3 ~after:0 ]
    sim (Policy.round_robin ());
  Alcotest.(check int) "two recoveries" 2 (Sim.recoveries_of sim 0);
  Alcotest.(check int) "recovery completed exactly once" 1 !completed

(* A recovering crash against a process with no registered entry point
   degrades to a terminal crash. *)
let test_recover_without_entry_point () =
  let sim = Sim.create ~n:2 () in
  let r = Sim.reg sim ~name:"r" 0 in
  Sim.spawn sim 0 (fun () ->
      for k = 1 to 5 do
        Sim.write r k
      done);
  Sim.spawn sim 1 (fun () -> ignore (Sim.read r));
  Sim.run ~crashes:[ Crash.recovering ~pid:0 ~at:2 ~after:3 ] sim (Policy.round_robin ());
  Alcotest.(check bool) "has no recovery" false (Sim.has_recovery sim 0);
  Alcotest.(check bool) "terminally crashed" true (Sim.is_crashed sim 0);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending_recoveries sim);
  Alcotest.(check int) "no recoveries" 0 (Sim.recoveries_of sim 0)

(* --- rewinding -------------------------------------------------------- *)

(* [Sim.clear] forgets crash state, scheduled recoveries and entry
   points; setting the workload up again on the same simulator replays
   its crash schedule deterministically. *)
let test_clear_rewinds_crash_state () =
  let sim = Sim.create ~n:2 () in
  let recovery_runs = ref 0 in
  let setup () =
    let d = Sim.reg sim ~name:"d" 0 in
    let v = Sim.reg sim ~volatile:true ~name:"v" 0 in
    Sim.set_recovery sim 0 (fun () ->
        incr recovery_runs;
        Sim.write d 99);
    Sim.spawn sim 0 (fun () ->
        Sim.write v 1;
        for k = 1 to 4 do
          Sim.write d k
        done);
    Sim.spawn sim 1 (fun () ->
        for _ = 1 to 10 do
          ignore (Sim.read d)
        done)
  in
  let run () =
    Sim.run ~crashes:[ Crash.recovering ~pid:0 ~at:2 ~after:2 ] sim (Policy.round_robin ())
  in
  setup ();
  run ();
  Alcotest.(check int) "first run recovered" 1 (Sim.recoveries_of sim 0);
  let clock1 = Sim.clock sim in
  Sim.clear sim;
  Alcotest.(check int) "clear clears recovery count" 0 (Sim.recoveries_of sim 0);
  Alcotest.(check int) "clear drops counters" 0 (Sim.total_recoveries sim);
  Alcotest.(check int) "clear clears pending" 0 (Sim.pending_recoveries sim);
  Alcotest.(check bool) "clear drops entry point" false (Sim.has_recovery sim 0);
  Alcotest.(check bool) "clear un-crashes" false (Sim.is_crashed sim 0);
  setup ();
  run ();
  Alcotest.(check int) "second run recovered too" 1 (Sim.recoveries_of sim 0);
  Alcotest.(check int) "deterministic across clear" clock1 (Sim.clock sim);
  Alcotest.(check int) "recovery body ran both times" 2 !recovery_runs

(* --- re-invocation traces --------------------------------------------- *)

let treq id = Scs_spec.Request.make id Scs_spec.Objects.Test_and_set

let test_trace_reinvocation () =
  let tr : (Scs_spec.Objects.tas_req, Scs_spec.Objects.tas_resp, unit) Trace.t =
    Trace.create ()
  in
  let req = treq 1 in
  Trace.invoke tr ~pid:0 req;
  Trace.recover tr ~pid:0 req;
  Trace.commit tr ~pid:0 req Scs_spec.Objects.Winner;
  match Trace.operations (Trace.events tr) with
  | [ op ] ->
      Alcotest.(check int) "one re-invocation folded in" 1 op.Trace.op_recoveries;
      Alcotest.(check int) "interval starts at original invoke" 0 op.Trace.invoke_seq;
      (match op.Trace.outcome with
      | Trace.Committed { resp = Scs_spec.Objects.Winner; _ } -> ()
      | _ -> Alcotest.fail "expected committed winner")
  | ops -> Alcotest.failf "expected one operation, got %d" (List.length ops)

let test_trace_recover_errors () =
  let tr : (Scs_spec.Objects.tas_req, Scs_spec.Objects.tas_resp, unit) Trace.t =
    Trace.create ()
  in
  let req = treq 1 in
  Trace.invoke tr ~pid:0 req;
  Trace.recover tr ~pid:0 (treq 2);
  (match Trace.operations (Trace.events tr) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "recovery of an uninvoked request must be rejected");
  let tr2 : (Scs_spec.Objects.tas_req, Scs_spec.Objects.tas_resp, unit) Trace.t =
    Trace.create ()
  in
  Trace.invoke tr2 ~pid:0 req;
  Trace.commit tr2 ~pid:0 req Scs_spec.Objects.Winner;
  Trace.recover tr2 ~pid:0 req;
  match Trace.operations (Trace.events tr2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "recovery after a response must be rejected"

(* A recovered operation is one operation spanning its whole interval:
   the TAS checker needs no special case. *)
let test_tas_lin_accepts_recovered_op () =
  let tr : (Scs_spec.Objects.tas_req, Scs_spec.Objects.tas_resp, unit) Trace.t =
    Trace.create ()
  in
  let r0 = treq 1 and r1 = treq 2 in
  Trace.invoke tr ~pid:0 r0;
  Trace.invoke tr ~pid:1 r1;
  Trace.commit tr ~pid:1 r1 Scs_spec.Objects.Winner;
  Trace.recover tr ~pid:0 r0;
  Trace.commit tr ~pid:0 r0 Scs_spec.Objects.Loser;
  let ops = Trace.operations (Trace.events tr) in
  Alcotest.(check bool) "linearizable with a recovered loser" true
    (Tas_lin.check_one_shot ops)

(* --- lane rendering ---------------------------------------------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_render_lanes_recovering () =
  let s =
    Fuzz.render_lanes ~n:2
      ~schedule:[| 0; 0; 0; 1; 1; 0; 1 |]
      ~crashes:[ Crash.recovering ~pid:0 ~at:2 ~after:0 ]
      ()
  in
  Alcotest.(check bool) "X then R along the lane" true (contains s "###X.R.");
  Alcotest.(check bool) "recovering label" true (contains s "crash@2+0");
  Alcotest.(check bool) "fired" false (contains s "(unfired)")

let test_render_lanes_terminal () =
  let s =
    Fuzz.render_lanes ~n:2
      ~schedule:[| 0; 0; 0; 1; 1; 1 |]
      ~crashes:[ Crash.terminal ~pid:0 ~at:2 ]
      ()
  in
  Alcotest.(check bool) "bare X" true (contains s "###X..");
  Alcotest.(check bool) "no R on a terminal crash" false (String.contains s 'R');
  Alcotest.(check bool) "terminal label" true (contains s "crash@2")

let test_render_lanes_unfired () =
  let s =
    Fuzz.render_lanes ~n:2
      ~schedule:[| 0; 0; 0; 1; 1; 1 |]
      ~crashes:[ Crash.terminal ~pid:0 ~at:99 ]
      ()
  in
  Alcotest.(check bool) "flagged unfired" true (contains s "(unfired)");
  Alcotest.(check bool) "no X mark" false (String.contains s 'X')

(* --- backend error message (satellite: actionable CLI errors) --------- *)

let test_backend_error_lists_valid_names () =
  match Scs_prims.Backend.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus backend accepted"
  | Error msg ->
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions %s" name)
            true (contains msg name))
        Scs_prims.Backend.valid_names

(* --- recoverable consensus workloads ---------------------------------- *)

(* Bounded exhaustive exploration, crash-free: the recoverable algorithms
   are plain consensus when nothing crashes. *)
let explore_recoverable w () =
  let inst = ref None in
  let setup sim =
    let i = w.Fuzz_run.instantiate ~n:2 () in
    inst := Some i;
    i.Fuzz_run.setup sim
  in
  let check sim _sched = (Option.get !inst).Fuzz_run.check sim in
  let outcome = Explore.exhaustive ~max_schedules:40_000 ~n:2 ~setup ~check () in
  Alcotest.(check bool) "explored some schedules" true (outcome.Explore.schedules > 0)

(* Crash-recover fuzzing stays clean on the sound algorithms. *)
let fuzz_clean w ~n ~runs () =
  let report =
    Fuzz_run.fuzz ~policies:Fuzz.recover_portfolio ~runs ~seed:42 w ~n
  in
  Alcotest.(check int)
    (w.Fuzz_run.name ^ ": no violations under crash-recover policies")
    0
    (List.length report.Fuzz.r_violations);
  let total_runs =
    List.fold_left (fun acc s -> acc + s.Fuzz.s_runs) 0 report.Fuzz.r_stats
  in
  Alcotest.(check bool) "ran the full budget" true (total_runs >= runs)

(* Pooled fuzzing agrees run for run with the fresh-simulator oracle
   (test_pool.ml) — recovery state is fully reset between pooled runs. *)
let test_pool_fresh_differential () =
  let policies = Fuzz.recover_portfolio and w = Fuzz_run.recoverable_split in
  Test_pool.check_against_fresh "recoverable-split"
    (Fuzz_run.fuzz ~policies ~runs:80 ~seed:7 w ~n:3)
    (Test_pool.fresh_fuzz ~policies ~runs:80 ~seed:7 w ~n:3)

(* Capture a run with a recovering crash, then replay the recorded
   schedule + crash events strictly: same outcome, no drift. *)
let test_capture_replay_with_recovery () =
  let w = Fuzz_run.recoverable_split in
  let n = 3 in
  let inst = w.Fuzz_run.instantiate ~n () in
  let sim = Sim.create ~n () in
  inst.Fuzz_run.setup sim;
  let buf = Scs_util.Vec.create () in
  let crashes = [ Crash.recovering ~pid:0 ~at:2 ~after:1 ] in
  Sim.run ~capture:buf ~crashes sim (Policy.random (Scs_util.Rng.create 5));
  inst.Fuzz_run.check sim;
  Alcotest.(check int) "the crash recovered" 1 (Sim.recoveries_of sim 0);
  let schedule = Scs_util.Vec.to_array buf in
  match Fuzz_run.replay w ~n ~schedule ~crashes with
  | Fuzz_run.Passes -> ()
  | Fuzz_run.Violates e -> Alcotest.failf "replay violated: %s" e
  | Fuzz_run.Skipped e -> Alcotest.failf "replay skipped: %s" e
  | Fuzz_run.Drifted p -> Alcotest.failf "replay drifted at pid %d" p

(* --- pinned finding F-5 ------------------------------------------------ *)

(* Volatile announcement arrays break bakery agreement: a single terminal
   crash wipes every in-flight announcement, after which two survivors
   pass their clean checks against an empty array and decide different
   values. Shrunk from a crash-recover fuzz run (seed 42); see
   docs/recovery.md and EXPERIMENTS.md T17. *)
let f5_repro =
  String.concat "\n"
    [
      "scsrepro 1";
      "workload recoverable-bakery-volatile";
      "n 3";
      "seed 540250794";
      "policy pct(3)+crashrec";
      "error recoverable-bakery-volatile: agreement violated: decision values disagree";
      "crashes 0@1";
      "schedule 1 1 1 1 1 1 1 1 1 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 0 0 1 1 1 1 1 \
       1 1 1 1 1 1 1";
      "";
    ]

let test_f5_pinned_repro () =
  let repro = Fuzz.Repro.of_string f5_repro in
  match Fuzz_run.find_qualified repro.Fuzz.Repro.workload with
  | None -> Alcotest.failf "unknown workload %s" repro.Fuzz.Repro.workload
  | Some (w, backend) -> (
      Alcotest.(check bool) "volatile variant is a known-failing finder" true
        w.Fuzz_run.expect_failures;
      match
        Fuzz_run.replay ~backend w ~n:repro.Fuzz.Repro.n
          ~schedule:repro.Fuzz.Repro.schedule ~crashes:repro.Fuzz.Repro.crashes
      with
      | Fuzz_run.Violates _ -> ()
      | Fuzz_run.Passes -> Alcotest.fail "F-5 repro no longer violates"
      | Fuzz_run.Skipped e -> Alcotest.failf "F-5 repro skipped: %s" e
      | Fuzz_run.Drifted p -> Alcotest.failf "F-5 repro drifted at pid %d" p)

(* The durable bakery survives the exact same schedule and crash. *)
let test_f5_schedule_sound_variant () =
  let repro = Fuzz.Repro.of_string f5_repro in
  match
    Fuzz_run.replay Fuzz_run.recoverable_bakery ~n:repro.Fuzz.Repro.n
      ~schedule:repro.Fuzz.Repro.schedule ~crashes:repro.Fuzz.Repro.crashes
  with
  | Fuzz_run.Violates e -> Alcotest.failf "durable bakery violated: %s" e
  | Fuzz_run.Passes | Fuzz_run.Drifted _ | Fuzz_run.Skipped _ ->
      (* the schedule need not replay cell for cell on a different
         algorithm; all that matters is that no violation surfaces *)
      ()

(* The shrinker preserves the crash explanation: shrinking the F-5 repro
   keeps a crash on pid 0 and the result still violates. *)
let test_f5_shrink_preserves_crash () =
  let repro = Fuzz.Repro.of_string f5_repro in
  match Fuzz_run.find_qualified repro.Fuzz.Repro.workload with
  | None -> Alcotest.fail "workload missing"
  | Some (w, backend) -> (
      let (schedule, crashes), _stats =
        Fuzz_run.shrink ~backend w ~n:repro.Fuzz.Repro.n
          ~schedule:repro.Fuzz.Repro.schedule ~crashes:repro.Fuzz.Repro.crashes
      in
      Alcotest.(check bool) "a crash survives shrinking" true
        (List.exists (fun (c : Crash.t) -> c.pid = 0) crashes);
      match Fuzz_run.replay ~backend w ~n:repro.Fuzz.Repro.n ~schedule ~crashes with
      | Fuzz_run.Violates _ -> ()
      | _ -> Alcotest.fail "shrunk repro must still violate")

let tests =
  [
    Alcotest.test_case "crash strings" `Quick test_crash_strings;
    Alcotest.test_case "durable/volatile litmus" `Quick test_durable_volatile_litmus;
    Alcotest.test_case "global volatile wipe" `Quick test_global_wipe;
    Alcotest.test_case "recovery delay" `Quick test_recovery_delay;
    Alcotest.test_case "stalled recovery admitted" `Quick test_stalled_recovery_admitted;
    Alcotest.test_case "solo crash ends run" `Quick test_solo_crash_ends_run;
    Alcotest.test_case "double crash, idempotent recovery" `Quick
      test_double_crash_idempotent_recovery;
    Alcotest.test_case "recover without entry point" `Quick test_recover_without_entry_point;
    Alcotest.test_case "clear rewinds crash state" `Quick test_clear_rewinds_crash_state;
    Alcotest.test_case "trace re-invocation" `Quick test_trace_reinvocation;
    Alcotest.test_case "trace recover errors" `Quick test_trace_recover_errors;
    Alcotest.test_case "tas-lin accepts recovered op" `Quick test_tas_lin_accepts_recovered_op;
    Alcotest.test_case "render lanes: X...R" `Quick test_render_lanes_recovering;
    Alcotest.test_case "render lanes: terminal X" `Quick test_render_lanes_terminal;
    Alcotest.test_case "render lanes: unfired" `Quick test_render_lanes_unfired;
    Alcotest.test_case "backend error lists names" `Quick test_backend_error_lists_valid_names;
    Alcotest.test_case "explore recoverable-split" `Slow
      (explore_recoverable Fuzz_run.recoverable_split);
    Alcotest.test_case "explore recoverable-bakery" `Slow
      (explore_recoverable Fuzz_run.recoverable_bakery);
    Alcotest.test_case "crash-recover fuzz clean: split" `Slow
      (fuzz_clean Fuzz_run.recoverable_split ~n:3 ~runs:200);
    Alcotest.test_case "crash-recover fuzz clean: bakery" `Slow
      (fuzz_clean Fuzz_run.recoverable_bakery ~n:3 ~runs:200);
    Alcotest.test_case "pool/fresh differential" `Slow test_pool_fresh_differential;
    Alcotest.test_case "capture/replay with recovery" `Quick
      test_capture_replay_with_recovery;
    Alcotest.test_case "F-5 pinned repro" `Quick test_f5_pinned_repro;
    Alcotest.test_case "F-5 schedule, sound variant" `Quick test_f5_schedule_sound_variant;
    Alcotest.test_case "F-5 shrink preserves crash" `Quick test_f5_shrink_preserves_crash;
  ]
