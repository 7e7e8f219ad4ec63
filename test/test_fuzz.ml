(* The fuzz/shrink/replay loop, end to end (acceptance for the fuzzing
   subsystem):

   - the fuzzer re-discovers findings F-1 and F-2 at n = 3 by plain
     randomized search;
   - the shrinker reduces the raw failing schedules to at most the
     length of the hand-extracted minimal schedules replayed in
     test_findings.ml (21 turns for F-1, 19 for F-2);
   - the emitted .scsrepro artifacts round-trip through the textual
     format and deterministically re-trigger each violation under
     strict scripted replay. *)

open Scs_sim
open Scs_workload

let uniform = [ { Fuzz.kind = Fuzz.Uniform; crash_faults = false; crash_recover = false } ]

let fuzz_one w ~n =
  let report = Fuzz_run.fuzz ~policies:uniform ~runs:100_000 ~max_violations:1 ~seed:7 w ~n in
  match report.Fuzz.r_violations with
  | [ v ] -> v
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

(* recorded minimal lengths from test_findings.ml *)
let f1_recorded_len = 21
let f2_recorded_len = 19

let find_shrink_replay w ~n ~recorded_len =
  let v = fuzz_one w ~n in
  let (sched, crashes), (st : Shrink.stats) =
    Fuzz_run.shrink w ~n ~schedule:v.Fuzz.v_schedule ~crashes:v.Fuzz.v_crashes
  in
  if Array.length sched > recorded_len then
    Alcotest.failf "shrunk schedule has %d turns > recorded minimal %d" (Array.length sched)
      recorded_len;
  Alcotest.(check int) "stats agree with result" (Array.length sched) st.Shrink.final_len;
  Alcotest.(check bool) "shrinking reduced or kept length" true
    (st.Shrink.final_len <= st.Shrink.orig_len);
  (* the minimized triple still deterministically reproduces *)
  (match Fuzz_run.replay w ~n ~schedule:sched ~crashes with
  | Fuzz_run.Violates _ -> ()
  | Fuzz_run.Passes -> Alcotest.fail "shrunk schedule no longer violates"
  | Fuzz_run.Skipped m -> Alcotest.failf "shrunk schedule skipped: %s" m
  | Fuzz_run.Drifted p -> Alcotest.failf "shrunk schedule drifts at pid %d" p);
  (* 1-minimality: removing any single remaining turn loses the failure *)
  let still_fails i =
    let cand =
      Array.init
        (Array.length sched - 1)
        (fun j -> if j < i then sched.(j) else sched.(j + 1))
    in
    match Fuzz_run.replay w ~n ~schedule:cand ~crashes with
    | Fuzz_run.Violates _ -> true
    | _ -> false
  in
  for i = 0 to Array.length sched - 1 do
    if still_fails i then Alcotest.failf "dropping turn %d still fails: not 1-minimal" i
  done;
  (* and the .scsrepro artifact round-trips and replays *)
  let repro = { (Fuzz.Repro.of_violation v) with Fuzz.Repro.schedule = sched; crashes } in
  let path = Filename.temp_file "scs" ".scsrepro" in
  Fuzz.Repro.save path repro;
  let loaded = Fuzz.Repro.load path in
  Sys.remove path;
  Alcotest.(check string) "workload survives round-trip" repro.Fuzz.Repro.workload
    loaded.Fuzz.Repro.workload;
  Alcotest.(check (array int)) "schedule survives round-trip" repro.Fuzz.Repro.schedule
    loaded.Fuzz.Repro.schedule;
  Alcotest.(check bool) "crashes survive round-trip" true
    (repro.Fuzz.Repro.crashes = loaded.Fuzz.Repro.crashes);
  match
    Fuzz_run.replay w ~n:loaded.Fuzz.Repro.n ~schedule:loaded.Fuzz.Repro.schedule
      ~crashes:loaded.Fuzz.Repro.crashes
  with
  | Fuzz_run.Violates _ -> ()
  | _ -> Alcotest.fail "loaded artifact did not re-trigger the violation"

let test_f1_fuzz_shrink_replay () =
  find_shrink_replay Fuzz_run.f1 ~n:3 ~recorded_len:f1_recorded_len

let test_f2_fuzz_shrink_replay () =
  find_shrink_replay Fuzz_run.f2 ~n:3 ~recorded_len:f2_recorded_len

let test_fuzz_deterministic () =
  let v1 = fuzz_one Fuzz_run.f1 ~n:3 in
  let v2 = fuzz_one Fuzz_run.f1 ~n:3 in
  Alcotest.(check (array int)) "same seed, same failing schedule" v1.Fuzz.v_schedule
    v2.Fuzz.v_schedule;
  Alcotest.(check int) "same run seed" v1.Fuzz.v_seed v2.Fuzz.v_seed

let test_portfolio_green_workloads () =
  (* every expect_failures=false workload must fuzz clean on a smoke
     budget across the whole portfolio, including crash injection *)
  List.iter
    (fun (w : Fuzz_run.t) ->
      if not w.Fuzz_run.expect_failures then begin
        let report = Fuzz_run.fuzz ~runs:60 ~seed:5 w ~n:w.Fuzz_run.default_n in
        List.iter
          (fun (s : Fuzz.policy_stats) ->
            if s.Fuzz.s_violations > 0 then
              Alcotest.failf "%s: %d violations under %s" w.Fuzz_run.name
                s.Fuzz.s_violations s.Fuzz.s_policy)
          report.Fuzz.r_stats
      end)
    Fuzz_run.all

let test_queue_past_cap_checked () =
  (* 3 processes x 22 ops = 66 operations > the legacy 62-op cap: such
     runs used to be skipped and are now checked and counted as
     checked-large, with zero capacity skips *)
  let report = Fuzz_run.fuzz ~policies:uniform ~runs:3 ~seed:3 Fuzz_run.queue ~n:3 in
  match report.Fuzz.r_stats with
  | [ s ] ->
      Alcotest.(check int) "no skips" 0 s.Fuzz.s_skipped;
      Alcotest.(check int) "all runs checked past the cap" 3 s.Fuzz.s_checked_large;
      Alcotest.(check int) "no violations" 0 s.Fuzz.s_violations;
      Alcotest.(check int) "all runs accounted" 3 s.Fuzz.s_runs
  | _ -> Alcotest.fail "expected one policy"

let test_long_lived_fuzz_no_capacity_skips () =
  (* the headline acceptance check: 200+ op long-lived TAS histories are
     actually verified — zero capacity skips, every run counted as
     checked-large, and the scalable + per-round compositional checks
     both hold *)
  let report =
    Fuzz_run.fuzz ~policies:uniform ~runs:5 ~seed:9 Fuzz_run.tas_long_lived ~n:3
  in
  match report.Fuzz.r_stats with
  | [ s ] ->
      Alcotest.(check int) "no skips" 0 s.Fuzz.s_skipped;
      Alcotest.(check int) "every run checked past the cap" 5 s.Fuzz.s_checked_large;
      Alcotest.(check int) "no violations" 0 s.Fuzz.s_violations
  | _ -> Alcotest.fail "expected one policy"

let test_long_lived_direct_sequential () =
  (* one deterministic sequential run, inspected directly: enough rounds
     to give 100+ resets, a history far past the seed checker's 62-op
     cap, decided by the scalable checker *)
  let open Scs_spec in
  let open Scs_history in
  let n = 3 in
  let iters = 67 in
  let sim = Sim.create ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module LL = Scs_tas.Long_lived.Make (P) in
  let ll = LL.create ~strict:true ~name:"ll" ~rounds:((n * iters) + 1) () in
  let gen = Request.Gen.create () in
  let tr : (Objects.rtas_req, Objects.rtas_resp, unit) Trace.t =
    Trace.create ~clock:(fun () -> Sim.clock sim) ()
  in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let h = LL.handle ll ~pid in
        for _ = 1 to iters do
          let req = Request.Gen.fresh gen Objects.R_test_and_set in
          Trace.invoke tr ~pid req;
          let resp, _, _ = LL.test_and_set_info h in
          Trace.commit tr ~pid req
            (match resp with
            | Objects.Winner -> Objects.R_winner
            | Objects.Loser -> Objects.R_loser);
          if resp = Objects.Winner then begin
            let rq = Request.Gen.fresh gen Objects.R_reset in
            Trace.invoke tr ~pid rq;
            LL.reset h;
            Trace.commit tr ~pid rq Objects.R_ok
          end
        done)
  done;
  Sim.run sim (Policy.sequential ());
  let ops = Trace.operations (Trace.events tr) in
  let nops = List.length ops in
  let resets =
    List.length
      (List.filter
         (fun (o : _ Trace.operation) ->
           Request.payload o.Trace.op_req = Objects.R_reset)
         ops)
  in
  Alcotest.(check bool) (Printf.sprintf "history is large (%d ops)" nops) true (nops >= 300);
  Alcotest.(check bool) (Printf.sprintf "long-lived: %d resets" resets) true (resets >= 100);
  Alcotest.(check bool) "scalable checker accepts" true
    (Linearize.check_operations Objects.resettable_tas ops)

let test_crash_variant_finds_f1 () =
  (* crash-injecting portfolio member also rediscovers F-1, and its
     (schedule, crashes) pair replays deterministically *)
  let policies = [ { Fuzz.kind = Fuzz.Uniform; crash_faults = true; crash_recover = false } ] in
  let report =
    Fuzz_run.fuzz ~policies ~runs:100_000 ~max_violations:1 ~seed:7 Fuzz_run.f1 ~n:3
  in
  match report.Fuzz.r_violations with
  | [ v ] -> (
      match
        Fuzz_run.replay Fuzz_run.f1 ~n:3 ~schedule:v.Fuzz.v_schedule
          ~crashes:v.Fuzz.v_crashes
      with
      | Fuzz_run.Violates _ -> ()
      | _ -> Alcotest.fail "crash-variant violation did not replay")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_chain_bakery_dec_regression () =
  (* regression for a bug this fuzzer found on its first smoke sweep: the
     bakery's ⊥-phase commit wrote Dec := None, clobbering a concurrent
     real decision, so the chain's leave-probe missed it and a later
     process decided its own value. sticky(0.25), seed 11, disagreement
     at run 65 before the fix. *)
  let policies =
    [ { Fuzz.kind = Fuzz.Sticky 0.25; crash_faults = false; crash_recover = false } ]
  in
  let report =
    Fuzz_run.fuzz ~policies ~runs:2000 ~seed:11 Fuzz_run.consensus_chain ~n:3
  in
  match report.Fuzz.r_violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "chain agreement regressed: %s" v.Fuzz.v_error

let test_shrink_rejects_non_reproducing_input () =
  (* a passing schedule is not a counterexample: minimize must refuse *)
  let { Fuzz_run.setup; check } = Fuzz_run.f1.Fuzz_run.instantiate ~n:3 () in
  let sim = Sim.create ~n:3 () in
  setup sim;
  let buf = Scs_util.Vec.create () in
  Sim.run ~capture:buf sim (Policy.sequential ());
  check sim;
  (* sequential runs are linearizable: check passes *)
  match
    Fuzz_run.shrink Fuzz_run.f1 ~n:3 ~schedule:(Scs_util.Vec.to_array buf) ~crashes:[]
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_repro_parse_errors () =
  List.iter
    (fun s ->
      match Fuzz.Repro.of_string s with
      | _ -> Alcotest.failf "accepted malformed input %S" s
      | exception Failure _ -> ())
    [
      "";
      "bogus";
      "scsrepro 2\nworkload f1\nn 3\nseed 1\npolicy u\nerror e\ncrashes -\nschedule 0";
      "scsrepro 1\nworkload f1\nn 3\nseed 1\npolicy u\nerror e\ncrashes 0@\nschedule 0";
      "scsrepro 1\nworkload f1\nn 3";
    ]

let test_repro_crashes_field () =
  let r =
    {
      Fuzz.Repro.workload = "f1";
      n = 4;
      seed = 99;
      policy = "uniform+crash";
      error = "some failure with spaces";
      crashes =
        [ Crash.terminal ~pid:0 ~at:3; Crash.recovering ~pid:2 ~at:11 ~after:4 ];
      schedule = [| 0; 1; 2; 3; 0 |];
    }
  in
  let r' = Fuzz.Repro.of_string (Fuzz.Repro.to_string r) in
  Alcotest.(check bool) "full record round-trips" true (r = r')

let tests =
  [
    Alcotest.test_case "F-1: fuzz, shrink to <= 21 turns, replay" `Quick
      test_f1_fuzz_shrink_replay;
    Alcotest.test_case "F-2: fuzz, shrink to <= 19 turns, replay" `Quick
      test_f2_fuzz_shrink_replay;
    Alcotest.test_case "fuzzing is deterministic given the seed" `Quick
      test_fuzz_deterministic;
    Alcotest.test_case "green workloads fuzz clean (smoke portfolio)" `Quick
      test_portfolio_green_workloads;
    Alcotest.test_case "queue past the 62-op cap is checked, counted" `Quick
      test_queue_past_cap_checked;
    Alcotest.test_case "long-lived TAS: zero capacity skips in a fuzz batch" `Quick
      test_long_lived_fuzz_no_capacity_skips;
    Alcotest.test_case "long-lived TAS: 100+ resets checked directly" `Quick
      test_long_lived_direct_sequential;
    Alcotest.test_case "crash-injecting policy finds and replays F-1" `Quick
      test_crash_variant_finds_f1;
    Alcotest.test_case "regression: bakery Dec clobber (fuzzer-found)" `Quick
      test_chain_bakery_dec_regression;
    Alcotest.test_case "shrink refuses non-reproducing input" `Quick
      test_shrink_rejects_non_reproducing_input;
    Alcotest.test_case "repro: malformed inputs rejected" `Quick test_repro_parse_errors;
    Alcotest.test_case "repro: crash set round-trips" `Quick test_repro_crashes_field;
  ]
