(* Verification of the composed speculative TAS (A1 ∘ A2, Lemma 7), the
   solo-fast variant (Appendix B), module A2 in isolation (Lemma 5), and
   the A1 ∘ A1 ∘ A2 chain (modules compose in any order, Section 6.3).
   Safety is checked exhaustively for 2 processes, with sleep-set POR
   coverage (one representative per class of commuting reorderings) for
   3, and with random schedules plus crash injection for more. *)

open Scs_spec
open Scs_history
open Scs_sim
open Scs_composable
open Scs_workload

(* ---- exhaustive: composed one-shot ---------------------------------- *)

let run_composed_exhaustive ?(max_schedules = 100_000) ?(por = false) ~n ~variant () =
  let current = ref None in
  let setup sim =
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let tr = Trace.create ~clock:(fun () -> Sim.clock sim) () in
    current := Some tr;
    let op =
      match variant with
      | `Composed | `Strict ->
          let module OS = Scs_tas.One_shot.Make (P) in
          let os = OS.create ~strict:(variant = `Strict) ~name:"tas" () in
          fun ~pid -> OS.test_and_set os ~pid
      | `Solo_fast ->
          let module SF = Scs_tas.Solo_fast.Make (P) in
          let sf = SF.create ~name:"sf" () in
          fun ~pid -> SF.test_and_set sf ~pid
      | `A1A1A2 ->
          let module A1 = Scs_tas.A1.Make (P) in
          let module A2 = Scs_tas.A2.Make (P) in
          let a = A1.create ~name:"a" () in
          let b = A1.create ~name:"b" () in
          let c = A2.create ~name:"c" () in
          let m = Outcome.chain [ A1.as_module a; A1.as_module b; A2.as_module c ] in
          fun ~pid ->
            (match m.Outcome.m_apply ~pid Objects.Test_and_set with
            | Outcome.Commit r -> r
            | Outcome.Abort _ -> Alcotest.fail "wait-free chain aborted")
    in
    for pid = 0 to n - 1 do
      Sim.spawn sim pid (fun () ->
          let req = Request.make pid Objects.Test_and_set in
          Trace.invoke tr ~pid req;
          let r = op ~pid in
          Trace.commit tr ~pid req r)
    done
  in
  let failures = ref [] in
  let check _sim sched =
    let tr = Option.get !current in
    let ops = Trace.operations (Trace.events tr) in
    if not (Tas_lin.check_one_shot ops) then failures := sched :: !failures;
    (* cross-check with the generic checker on small traces *)
    if
      List.length ops <= 6
      && Tas_lin.check_one_shot ops <> Linearize.check_operations Objects.tas ops
    then failures := sched :: !failures
  in
  let outcome = Explore.exhaustive ~max_schedules ~por ~n ~setup ~check () in
  (outcome, !failures)

let check_variant name ?max_schedules ?por ~n variant () =
  let outcome, failures = run_composed_exhaustive ?max_schedules ?por ~n ~variant () in
  Alcotest.(check bool) (name ^ " fully explored") false outcome.Explore.truncated;
  Alcotest.(check int) (name ^ " linearizable everywhere") 0 (List.length failures)

(* ---- full POR coverage of the composed algorithm at n = 3 ------------- *)

(* Finding F-1 in fact begins at n = 3 (not 4, as seed-based random search
   suggested): the POR-complete exploration below finds maximal schedules
   of the paper-faithful composition whose histories are not strictly
   linearizable — a loser commits before the eventual winner is invoked.
   The paper's own correctness notion is intact: every explored schedule
   admits a valid Definition 2 interpretation and has at most one winner.
   The minimal counterexample is replayed deterministically in
   Test_findings. *)
let test_composed_por_3 () =
  let current = ref None in
  let setup sim =
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module OS = Scs_tas.One_shot.Make (P) in
    let os = OS.create ~strict:false ~name:"tas" () in
    let tr = Trace.create ~clock:(fun () -> Sim.clock sim) () in
    current := Some tr;
    for pid = 0 to 2 do
      Sim.spawn sim pid (fun () ->
          let req = Request.make pid Objects.Test_and_set in
          Trace.invoke tr ~pid req;
          let r = OS.test_and_set os ~pid in
          Trace.commit tr ~pid req r)
    done
  in
  let not_lin = ref 0 in
  let no_interp = ref [] in
  let multi_winner = ref [] in
  let check _sim sched =
    let tr = Option.get !current in
    let evs = Trace.events tr in
    let ops = Trace.operations evs in
    if not (Tas_lin.check_one_shot ops) then incr not_lin;
    (match Tas_interp.check_events evs with
    | Ok () -> ()
    | Error e -> no_interp := (e, sched) :: !no_interp);
    let winners =
      List.filter
        (fun (o : _ Trace.operation) ->
          match o.Trace.outcome with
          | Trace.Committed { resp = Objects.Winner; _ } -> true
          | _ -> false)
        ops
    in
    if List.length winners > 1 then multi_winner := sched :: !multi_winner
  in
  let outcome = Explore.exhaustive ~max_schedules:200_000 ~por:true ~n:3 ~setup ~check () in
  Alcotest.(check bool) "fully explored" false outcome.Explore.truncated;
  Alcotest.(check bool) "POR pruned schedules" true (outcome.Explore.pruned > 0);
  Alcotest.(check int) "interpretation exists everywhere" 0 (List.length !no_interp);
  Alcotest.(check int) "winner unique everywhere" 0 (List.length !multi_winner);
  Alcotest.(check bool) "strict-lin violations exist at n=3 (F-1)" true (!not_lin > 0)

(* ---- wait-freedom: every op completes under any schedule ------------- *)

let test_composed_wait_free () =
  for seed = 1 to 100 do
    let r = Tas_run.one_shot ~seed ~n:5 ~algo:Tas_run.Composed ~policy:Policy.random () in
    Alcotest.(check int) "all complete" 5 (List.length r.Tas_run.ops)
  done

(* ---- exactly one winner under random schedules ----------------------- *)

(* The paper-faithful composition is only "speculatively" linearizable for
   n >= 3 (see Test_findings); it is checked against the paper's own
   notion (a valid Definition 2 interpretation). All other variants are
   checked against strict Herlihy-Wing linearizability. *)
let one_winner_check ?(paper_notion = false) ~algo ~n ~runs () =
  for seed = 1 to runs do
    let r = Tas_run.one_shot ~seed ~n ~algo ~policy:Policy.random () in
    let w = List.length (Tas_run.winners r) in
    if w <> 1 then
      Alcotest.failf "%s: %d winners at seed %d" (Tas_run.algo_name algo) w seed;
    if paper_notion then begin
      match Tas_interp.check_events r.Tas_run.outer with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: no valid interpretation at seed %d: %s"
                     (Tas_run.algo_name algo) seed e
    end
    else begin
      let ops = Trace.operations r.Tas_run.outer in
      if not (Tas_lin.check_one_shot ops) then
        Alcotest.failf "%s: not linearizable at seed %d" (Tas_run.algo_name algo) seed
    end
  done

let test_composed_one_winner () =
  one_winner_check ~paper_notion:true ~algo:Tas_run.Composed ~n:8 ~runs:150 ()

let test_strict_one_winner () = one_winner_check ~algo:Tas_run.Strict ~n:8 ~runs:300 ()
let test_solo_fast_one_winner () = one_winner_check ~algo:Tas_run.Solo_fast ~n:8 ~runs:300 ()
let test_hardware_one_winner () = one_winner_check ~algo:Tas_run.Hardware ~n:8 ~runs:50 ()
let test_tournament_one_winner () = one_winner_check ~algo:Tas_run.Tournament ~n:8 ~runs:150 ()

(* The tournament baseline is strictly linearizable only behind its
   doorway: the bare tree lets p1 lose at a node and return before the
   eventual winner p2 is even invoked, which the explorer finds at
   n = 3 on 499 of its first 500 schedules. *)
let test_tournament_linearizable () =
  let outcome, bad =
    Tas_run.explore_one_shot ~max_schedules:500 ~por:true ~n:3 ~algo:Tas_run.Tournament ()
  in
  Alcotest.(check int) "explored schedules" 500 outcome.Explore.schedules;
  Alcotest.(check int) "non-linearizable schedules (explore)" 0 bad;
  for seed = 1 to 300 do
    let r = Tas_run.one_shot ~seed ~n:3 ~algo:Tas_run.Tournament ~policy:Policy.random () in
    if not (Tas_lin.check_one_shot (Trace.operations r.Tas_run.outer)) then
      Alcotest.failf "seed %d: tournament history not strictly linearizable" seed
  done

(* ---- crash injection -------------------------------------------------- *)

let crash_safety ~algo ~check =
  for seed = 1 to 120 do
    let rng = Scs_util.Rng.create (seed * 7) in
    let crashes =
      [ (Scs_util.Rng.int rng 6, 1 + Scs_util.Rng.int rng 8) ]
      @ (if Scs_util.Rng.bool rng then [ ((Scs_util.Rng.int rng 6 + 3) mod 6, 1 + Scs_util.Rng.int rng 5) ] else [])
    in
    let r = Tas_run.one_shot ~seed ~n:6 ~algo ~crashes ~policy:Policy.random () in
    check seed r;
    let w = List.length (Tas_run.winners r) in
    if w > 1 then Alcotest.failf "crash run: %d winners at seed %d" w seed
  done

let test_composed_crash_safety () =
  crash_safety ~algo:Tas_run.Composed ~check:(fun seed r ->
      match Tas_interp.check_events r.Tas_run.outer with
      | Ok () -> ()
      | Error e -> Alcotest.failf "crash run has no interpretation at seed %d: %s" seed e)

let test_strict_crash_safety () =
  crash_safety ~algo:Tas_run.Strict ~check:(fun seed r ->
      let ops = Trace.operations r.Tas_run.outer in
      if not (Tas_lin.check_one_shot ops) then
        Alcotest.failf "strict crash run not linearizable at seed %d" seed)

(* ---- speculation: solo stays on registers ----------------------------- *)

let test_composed_solo_uses_registers_only () =
  let r = Tas_run.one_shot ~n:4 ~algo:Tas_run.Composed ~policy:(fun _ -> Policy.solo 0) () in
  match r.Tas_run.ops with
  | [ op ] ->
      Alcotest.(check bool) "winner" true (op.Tas_run.resp = Objects.Winner);
      Alcotest.(check bool) "fast stage" true (op.Tas_run.stage = Some Scs_tas.One_shot.Fast);
      Alcotest.(check int) "no RMW" 0 op.Tas_run.rmws;
      Alcotest.(check int) "nine steps" 9 op.Tas_run.steps
  | _ -> Alcotest.fail "expected one op"

let test_composed_sequential_all_fast () =
  let r = Tas_run.one_shot ~n:6 ~algo:Tas_run.Composed ~policy:(fun _ -> Policy.sequential ()) () in
  Alcotest.(check int) "one winner" 1 (List.length (Tas_run.winners r));
  List.iter
    (fun (op : Tas_run.op_record) ->
      Alcotest.(check bool) "no rmw sequentially" true (op.Tas_run.rmws = 0);
      Alcotest.(check bool) "fast stage" true (op.Tas_run.stage = Some Scs_tas.One_shot.Fast))
    r.Tas_run.ops

let test_contended_falls_back () =
  (* under heavy contention some operation must reach A2 in some seed *)
  let fell_back = ref false in
  for seed = 1 to 60 do
    let r = Tas_run.one_shot ~seed ~n:6 ~algo:Tas_run.Composed ~policy:Policy.random () in
    if
      List.exists
        (fun (op : Tas_run.op_record) -> op.Tas_run.stage = Some Scs_tas.One_shot.Fallback)
        r.Tas_run.ops
    then fell_back := true
  done;
  Alcotest.(check bool) "fallback exercised" true !fell_back

(* ---- abort implies step contention ------------------------------------ *)

let test_fallback_implies_contention () =
  (* Lemma 6, global reading, for the paper variant: any fallback implies
     some operation in the execution ran under step contention *)
  for seed = 1 to 60 do
    let r = Tas_run.one_shot ~seed ~n:5 ~algo:Tas_run.Composed ~policy:Policy.random () in
    let pairs = Tas_run.step_contended_ops r in
    let any_fallback =
      List.exists
        (fun ((op : Tas_run.op_record), _) -> op.Tas_run.stage = Some Scs_tas.One_shot.Fallback)
        pairs
    in
    let any_contention = List.exists snd pairs in
    if any_fallback && not any_contention then
      Alcotest.failf "fallback in a contention-free execution at seed %d" seed
  done

let test_solo_fast_fallback_first_person () =
  (* Appendix B's claim is per-operation: a solo-fast process reverts to
     the hardware only when ITSELF encountering step contention *)
  for seed = 1 to 150 do
    let r = Tas_run.one_shot ~seed ~n:5 ~algo:Tas_run.Solo_fast ~policy:Policy.random () in
    List.iter
      (fun ((op : Tas_run.op_record), contended) ->
        if op.Tas_run.stage = Some Scs_tas.One_shot.Fallback && not contended then
          Alcotest.failf "solo-fast op fell back without first-person contention at seed %d"
            seed)
      (Tas_run.step_contended_ops r)
  done

(* ---- A2 in isolation (Lemma 5) ---------------------------------------- *)

let test_a2_exhaustive () =
  let current = ref None in
  let setup sim =
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module A2 = Scs_tas.A2.Make (P) in
    let a2 = A2.create ~name:"a2" () in
    let tr = Trace.create ~clock:(fun () -> Sim.clock sim) () in
    current := Some tr;
    for pid = 0 to 1 do
      Sim.spawn sim pid (fun () ->
          let req = Request.make pid Objects.Test_and_set in
          (* pid 1 enters with an L token: it lost elsewhere *)
          let init = if pid = 1 then Some Tas_switch.L else Some Tas_switch.W in
          Trace.init tr ~pid req (Option.get init);
          match A2.apply a2 ~pid init with
          | Outcome.Commit r -> Trace.commit tr ~pid req r
          | Outcome.Abort _ -> Alcotest.fail "A2 never aborts")
    done
  in
  let failures = ref 0 in
  let check _ _ =
    let tr = Option.get !current in
    match Tas_interp.check_events (Trace.events tr) with
    | Ok () -> ()
    | Error _ -> incr failures
  in
  let outcome = Explore.exhaustive ~n:2 ~setup ~check () in
  Alcotest.(check bool) "explored all" false outcome.Explore.truncated;
  Alcotest.(check int) "A2 safely composable everywhere" 0 !failures

let test_a2_l_entrant_never_touches_hardware () =
  let sim = Sim.create ~n:1 () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module A2 = Scs_tas.A2.Make (P) in
  let a2 = A2.create ~name:"a2" () in
  let r = ref None in
  Sim.spawn sim 0 (fun () -> r := Some (A2.apply a2 ~pid:0 (Some Tas_switch.L)));
  Sim.run sim (Policy.round_robin ());
  Alcotest.(check bool) "loser" true (!r = Some (Outcome.Commit Objects.Loser));
  Alcotest.(check int) "zero RMWs" 0 (Sim.rmws_of sim 0)

(* ---- composed trace is itself safely composable ------------------------ *)

let test_composed_module_traces_interpretable () =
  for seed = 1 to 80 do
    let r = Tas_run.one_shot ~seed ~n:4 ~algo:Tas_run.Composed ~policy:Policy.random () in
    (match Tas_interp.check_events r.Tas_run.a1 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "A1 trace at seed %d: %s" seed e);
    match Tas_interp.check_events r.Tas_run.a2 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "A2 trace at seed %d: %s" seed e
  done

let tests =
  [
    (* n = 2 spaces are covered in full by the single-replay DFS; n = 3
       spaces (tens of millions of schedules) are covered via sleep-set
       POR, one representative per class of commuting reorderings, with
       truncation asserted away (the seed engine needed 25k-schedule
       budgets here and missed the n=3 F-1 violations entirely) *)
    Alcotest.test_case "composed exhaustive n=2" `Quick
      (check_variant "composed" ~n:2 `Composed);
    Alcotest.test_case "composed POR-complete n=3 (F-1 boundary)" `Slow
      test_composed_por_3;
    Alcotest.test_case "strict exhaustive n=2" `Quick
      (check_variant "strict" ~max_schedules:200_000 ~n:2 `Strict);
    Alcotest.test_case "strict POR-complete n=3" `Slow
      (check_variant "strict" ~max_schedules:200_000 ~por:true ~n:3 `Strict);
    Alcotest.test_case "solo-fast exhaustive n=2" `Quick
      (check_variant "solo-fast" ~n:2 `Solo_fast);
    Alcotest.test_case "solo-fast POR-complete n=3" `Slow
      (check_variant "solo-fast" ~max_schedules:200_000 ~por:true ~n:3 `Solo_fast);
    (* the chain's plain n=2 space exceeds 5M schedules; POR covers it
       with a complete set of per-class representatives *)
    Alcotest.test_case "A1.A1.A2 chain POR-complete n=2" `Quick
      (check_variant "chain" ~por:true ~n:2 `A1A1A2);
    Alcotest.test_case "composed wait-free" `Quick test_composed_wait_free;
    Alcotest.test_case "composed one winner (random)" `Quick test_composed_one_winner;
    Alcotest.test_case "strict one winner + linearizable (random)" `Quick
      test_strict_one_winner;
    Alcotest.test_case "solo-fast one winner (random)" `Quick test_solo_fast_one_winner;
    Alcotest.test_case "hardware one winner (random)" `Quick test_hardware_one_winner;
    Alcotest.test_case "tournament one winner (random)" `Quick test_tournament_one_winner;
    Alcotest.test_case "tournament strictly linearizable (doorway)" `Quick
      test_tournament_linearizable;
    Alcotest.test_case "crash safety (paper notion)" `Quick test_composed_crash_safety;
    Alcotest.test_case "crash safety (strict)" `Quick test_strict_crash_safety;
    Alcotest.test_case "solo uses registers only" `Quick test_composed_solo_uses_registers_only;
    Alcotest.test_case "sequential all fast" `Quick test_composed_sequential_all_fast;
    Alcotest.test_case "contention falls back" `Quick test_contended_falls_back;
    Alcotest.test_case "fallback implies step contention (global)" `Quick
      test_fallback_implies_contention;
    Alcotest.test_case "solo-fast fallback is first-person (App. B)" `Quick
      test_solo_fast_fallback_first_person;
    Alcotest.test_case "A2 exhaustive (Lemma 5)" `Quick test_a2_exhaustive;
    Alcotest.test_case "A2 L-entrant avoids hardware" `Quick
      test_a2_l_entrant_never_touches_hardware;
    Alcotest.test_case "module traces interpretable" `Quick
      test_composed_module_traces_interpretable;
  ]
