(* Verification of module A1 (Algorithm 1):
   - the five invariants from the proof of Lemma 4;
   - Lemma 6 (aborts only under step contention);
   - Lemma 4 itself, executed: every reachable trace admits a valid
     interpretation under the Definition 3 constraint function;
   - constant solo step and space complexity.
   n = 2 is covered exhaustively; n = 3 in full via sleep-set POR (the
   plain n = 3 space exceeds 20M schedules; POR certifies one
   representative per class of commuting reorderings, untruncated).

   Invariant 4 ("no operation that aborts with W starts after a loser
   commits") is accounted separately: it holds for n = 2 but is violated
   from n = 3 on — finding F-2, previously believed to start at n = 4
   until the POR-complete exploration reached the violating schedules
   that the seed engine's 25k budget never saw. See Test_findings. *)

open Scs_spec
open Scs_history
open Scs_sim
open Scs_composable

type probe = {
  mutable events : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
  mutable mem : Mem_event.t array;
  mutable intervals : (int * Detect.interval * bool) list;
      (** (request id, interval, aborted?) *)
}

let run_a1_exhaustive ?(max_schedules = 60_000) ?(por = false) ~n () =
  let probe = { events = [||]; mem = [||]; intervals = [] } in
  let current = ref None in
  let setup sim =
    Sim.set_trace sim true;
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module A1 = Scs_tas.A1.Make (P) in
    let a1 = A1.create ~name:"a1" () in
    let tr = Trace.create ~clock:(fun () -> Sim.clock sim) () in
    let intervals = ref [] in
    current := Some (tr, intervals);
    for pid = 0 to n - 1 do
      Sim.spawn sim pid (fun () ->
          let req = Request.make pid Objects.Test_and_set in
          let t0 = Sim.clock sim in
          Trace.invoke tr ~pid req;
          let aborted =
            match A1.apply a1 ~pid None with
            | Outcome.Commit r ->
                Trace.commit tr ~pid req r;
                false
            | Outcome.Abort v ->
                Trace.abort tr ~pid req v;
                true
          in
          intervals :=
            (pid, { Detect.pid; start_ts = t0; end_ts = Sim.clock sim }, aborted) :: !intervals)
    done
  in
  let failures = ref [] in
  let inv4_violations = ref [] in
  let fail_schedule sched msg = failures := (msg, sched) :: !failures in
  let check sim sched =
    let tr, intervals = Option.get !current in
    probe.events <- Trace.events tr;
    probe.mem <- Sim.trace_arr sim;
    probe.intervals <- !intervals;
    let ops = Trace.operations probe.events in
    let committed r =
      List.filter
        (fun (o : _ Trace.operation) ->
          match o.Trace.outcome with
          | Trace.Committed { resp; _ } -> resp = r
          | _ -> false)
        ops
    in
    let aborted v =
      List.filter
        (fun (o : _ Trace.operation) ->
          match o.Trace.outcome with
          | Trace.Aborted { switch; _ } -> switch = v
          | _ -> false)
        ops
    in
    let resp_seq (o : _ Trace.operation) =
      match o.Trace.outcome with
      | Trace.Committed { resp_seq; _ } | Trace.Aborted { resp_seq; _ } -> resp_seq
      | Trace.Pending -> max_int
    in
    (* Invariant 1: at most one winner *)
    if List.length (committed Objects.Winner) > 1 then fail_schedule sched "two winners";
    (* Invariant 2: winner => no W-aborts *)
    if committed Objects.Winner <> [] && aborted Tas_switch.W <> [] then
      fail_schedule sched "winner and W-abort coexist";
    (* Invariant 4: no W-abort starts after a loser commits. Violations
       are collected separately: this invariant is genuinely false from
       n = 3 on (finding F-2). *)
    (match committed Objects.Loser with
    | [] -> ()
    | losers ->
        let first_loser = List.fold_left (fun m o -> min m (resp_seq o)) max_int losers in
        List.iter
          (fun (o : _ Trace.operation) ->
            if o.Trace.invoke_seq > first_loser then
              inv4_violations := sched :: !inv4_violations)
          (aborted Tas_switch.W));
    (* Invariant 5: ops starting after an abort abort; after an L-abort,
       they abort with L *)
    let aborts = aborted Tas_switch.W @ aborted Tas_switch.L in
    (match aborts with
    | [] -> ()
    | _ ->
        let first_abort = List.fold_left (fun m o -> min m (resp_seq o)) max_int aborts in
        let first_l_abort =
          List.fold_left (fun m o -> min m (resp_seq o)) max_int (aborted Tas_switch.L)
        in
        List.iter
          (fun (o : _ Trace.operation) ->
            if o.Trace.invoke_seq > first_abort then begin
              match o.Trace.outcome with
              | Trace.Committed _ -> fail_schedule sched "op starting after abort committed"
              | Trace.Aborted { switch; _ } ->
                  if o.Trace.invoke_seq > first_l_abort && switch <> Tas_switch.L then
                    fail_schedule sched "op after L-abort did not abort with L"
              | Trace.Pending -> ()
            end)
          ops);
    (* Lemma 6, global reading: an abort implies step contention existed
       somewhere in the execution. (The per-operation reading is false for
       n >= 3 — Appendix B: "a process may abort if another process
       experiences step contention" — and belongs to the solo-fast
       variant.) *)
    let any_abort = List.exists (fun (_, _, a) -> a) probe.intervals in
    let any_contention =
      List.exists (fun (_, iv, _) -> Detect.step_contended probe.mem iv) probe.intervals
    in
    if any_abort && not any_contention then
      fail_schedule sched "abort in a step-contention-free execution";
    (* Lemma 4: the trace admits a valid interpretation *)
    (match Tas_interp.check_events probe.events with
    | Ok () -> ()
    | Error e -> fail_schedule sched ("not safely composable: " ^ e));
    (* And the basic TAS linearizability of the commit projection *)
    if not (Tas_lin.check_one_shot ops) then fail_schedule sched "commit projection not lin"
  in
  let outcome = Explore.exhaustive ~max_schedules ~por ~n ~setup ~check () in
  (outcome, !failures, !inv4_violations)

let pp_failures fs =
  String.concat "; "
    (List.map
       (fun (m, sched) ->
         Printf.sprintf "%s [%s]" m (String.concat "," (List.map string_of_int sched)))
       (match fs with a :: b :: c :: _ -> [ a; b; c ] | l -> l))

let test_a1_exhaustive_2 () =
  let outcome, failures, inv4 = run_a1_exhaustive ~n:2 () in
  Alcotest.(check bool) "fully explored" false outcome.Explore.truncated;
  Alcotest.(check int) "Invariant 4 holds at n=2" 0 (List.length inv4);
  if failures <> [] then Alcotest.failf "violations: %s" (pp_failures failures)

let test_a1_exhaustive_3 () =
  let outcome, failures, inv4 = run_a1_exhaustive ~max_schedules:100_000 ~por:true ~n:3 () in
  Alcotest.(check bool) "fully explored (POR)" false outcome.Explore.truncated;
  Alcotest.(check bool) "POR pruned schedules" true (outcome.Explore.pruned > 0);
  (* F-2 starts here: the bare module already breaks Invariant 4 at n=3 *)
  Alcotest.(check bool) "Invariant 4 violated at n=3 (F-2)" true (List.length inv4 > 0);
  if failures <> [] then Alcotest.failf "violations: %s" (pp_failures failures)

let test_a1_solo () =
  let sim = Sim.create ~n:1 () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module A1 = Scs_tas.A1.Make (P) in
  let a1 = A1.create ~name:"a1" () in
  let result = ref None in
  Sim.spawn sim 0 (fun () -> result := Some (A1.apply a1 ~pid:0 None));
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check bool) "solo wins" true (!result = Some (Outcome.Commit Objects.Winner));
  Alcotest.(check int) "constant steps" 9 (Sim.steps_of sim 0);
  Alcotest.(check int) "constant space: 4 registers" 4 (Sim.objects_allocated sim);
  Alcotest.(check int) "no RMW" 0 (Sim.rmws_of sim 0)

let test_a1_second_sequential_loses () =
  let sim = Sim.create ~n:2 () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module A1 = Scs_tas.A1.Make (P) in
  let a1 = A1.create ~name:"a1" () in
  let results = Array.make 2 None in
  for pid = 0 to 1 do
    Sim.spawn sim pid (fun () -> results.(pid) <- Some (A1.apply a1 ~pid None))
  done;
  Sim.run sim (Policy.sequential ());
  Alcotest.(check bool) "p0 wins" true (results.(0) = Some (Outcome.Commit Objects.Winner));
  Alcotest.(check bool) "p1 loses" true (results.(1) = Some (Outcome.Commit Objects.Loser));
  (* the sequential loser pays even fewer steps: V is already set *)
  Alcotest.(check int) "loser steps" 2 (Sim.steps_of sim 1)

let test_a1_init_l_short_circuits () =
  let sim = Sim.create ~n:1 () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module A1 = Scs_tas.A1.Make (P) in
  let a1 = A1.create ~name:"a1" () in
  let result = ref None in
  Sim.spawn sim 0 (fun () -> result := Some (A1.apply a1 ~pid:0 (Some Tas_switch.L)));
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check bool) "L commits loser" true (!result = Some (Outcome.Commit Objects.Loser));
  Alcotest.(check bool) "few steps" true (Sim.steps_of sim 0 <= 2)

let test_a1_after_abort_all_abort () =
  (* drive two processes into mutual interference so that [aborted] is
     set, then a third arrives and must abort (lines 4-6) *)
  let found = ref false in
  for seed = 1 to 80 do
    let sim = Sim.create ~n:3 () in
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module A1 = Scs_tas.A1.Make (P) in
    let a1 = A1.create ~name:"a1" () in
    let results = Array.make 3 None in
    for pid = 0 to 1 do
      Sim.spawn sim pid (fun () -> results.(pid) <- Some (A1.apply a1 ~pid None))
    done;
    Sim.spawn sim 2 (fun () -> results.(2) <- Some (A1.apply a1 ~pid:2 None));
    let rng = Scs_util.Rng.create seed in
    (* run p0/p1 interleaved first, p2 only afterwards *)
    let phase = ref 0 in
    Sim.run sim (fun s ->
        if !phase = 0 && Sim.finished s 0 && Sim.finished s 1 then phase := 1;
        if !phase = 0 then begin
          match List.filter (fun p -> p < 2) (Sim.runnable s) with
          | [] -> -1
          | ps -> Scs_util.Rng.pick_list rng ps
        end
        else Policy.sequential () s);
    let aborted pid =
      match results.(pid) with Some (Outcome.Abort _) -> true | _ -> false
    in
    if aborted 0 || aborted 1 then begin
      found := true;
      Alcotest.(check bool) "late arrival also aborts or loses" true
        (match results.(2) with
        | Some (Outcome.Abort _) | Some (Outcome.Commit Objects.Loser) -> true
        | _ -> false)
    end
  done;
  Alcotest.(check bool) "some schedule aborted" true !found

let tests =
  [
    Alcotest.test_case "exhaustive n=2 (invariants, Lemma 4, Lemma 6)" `Quick
      test_a1_exhaustive_2;
    Alcotest.test_case "exhaustive n=3 (POR-complete)" `Slow test_a1_exhaustive_3;
    Alcotest.test_case "solo: 9 steps, 4 regs, no RMW" `Quick test_a1_solo;
    Alcotest.test_case "sequential second loses" `Quick test_a1_second_sequential_loses;
    Alcotest.test_case "init L short-circuits" `Quick test_a1_init_l_short_circuits;
    Alcotest.test_case "after abort, late ops abort" `Quick test_a1_after_abort_all_abort;
  ]
