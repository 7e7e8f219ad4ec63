(* Tests for traces, the generic linearizability checker, the specialised
   TAS checker (cross-validated by property tests), and the Abstract
   property checker. *)

open Scs_spec
open Scs_history

let treq id = Request.make id Objects.Test_and_set

(* Build a Trace.operation directly. *)
let comp ~pid ~id ~inv ~res resp =
  {
    Trace.op_pid = pid;
    op_req = treq id;
    invoke_seq = inv;
    invoke_ts = inv;
    op_init = None;
    op_recoveries = 0;
    outcome = Trace.Committed { resp; resp_seq = res; resp_ts = res };
  }

let pend ~pid ~id ~inv =
  {
    Trace.op_pid = pid;
    op_req = treq id;
    invoke_seq = inv;
    invoke_ts = inv;
    op_init = None;
    op_recoveries = 0;
    outcome = Trace.Pending;
  }

(* --- generic checker ----------------------------------------------- *)

let test_lin_single_winner () =
  let ops = [ comp ~pid:0 ~id:1 ~inv:0 ~res:1 Objects.Winner ] in
  Alcotest.(check bool) "winner alone" true (Linearize.check_operations Objects.tas ops)

let test_lin_single_loser_rejected () =
  let ops = [ comp ~pid:0 ~id:1 ~inv:0 ~res:1 Objects.Loser ] in
  Alcotest.(check bool) "lone loser impossible" false
    (Linearize.check_operations Objects.tas ops)

let test_lin_loser_explained_by_pending () =
  let ops = [ pend ~pid:1 ~id:2 ~inv:0; comp ~pid:0 ~id:1 ~inv:1 ~res:2 Objects.Loser ] in
  Alcotest.(check bool) "pending explains loser" true
    (Linearize.check_operations Objects.tas ops)

let test_lin_pending_too_late () =
  (* the only winner candidate is invoked after the loser completed *)
  let ops = [ comp ~pid:0 ~id:1 ~inv:0 ~res:1 Objects.Loser; pend ~pid:1 ~id:2 ~inv:2 ] in
  Alcotest.(check bool) "pending after response cannot explain" false
    (Linearize.check_operations Objects.tas ops)

let test_lin_two_winners_rejected () =
  let ops =
    [
      comp ~pid:0 ~id:1 ~inv:0 ~res:2 Objects.Winner;
      comp ~pid:1 ~id:2 ~inv:1 ~res:3 Objects.Winner;
    ]
  in
  Alcotest.(check bool) "two winners" false (Linearize.check_operations Objects.tas ops)

let test_lin_winner_after_loser_rejected () =
  (* loser completes strictly before the winner is invoked *)
  let ops =
    [
      comp ~pid:0 ~id:1 ~inv:0 ~res:1 Objects.Loser;
      comp ~pid:1 ~id:2 ~inv:2 ~res:3 Objects.Winner;
    ]
  in
  Alcotest.(check bool) "winner invoked after loser done" false
    (Linearize.check_operations Objects.tas ops)

let test_lin_sequential_ok () =
  let ops =
    [
      comp ~pid:0 ~id:1 ~inv:0 ~res:1 Objects.Winner;
      comp ~pid:1 ~id:2 ~inv:2 ~res:3 Objects.Loser;
      comp ~pid:2 ~id:3 ~inv:4 ~res:5 Objects.Loser;
    ]
  in
  Alcotest.(check bool) "sequential run" true (Linearize.check_operations Objects.tas ops)

let test_lin_queue () =
  let q id p = Request.make id p in
  let mk ~id ~inv ~res req resp =
    {
      Trace.op_pid = 0;
      op_req = q id req;
      invoke_seq = inv;
      invoke_ts = inv;
      op_init = None;
      op_recoveries = 0;
      outcome = Trace.Committed { resp; resp_seq = res; resp_ts = res };
    }
  in
  (* concurrent enqueues, then dequeues observing either order *)
  let ops =
    [
      mk ~id:1 ~inv:0 ~res:3 (Objects.Enqueue 1) Objects.Q_ok;
      mk ~id:2 ~inv:1 ~res:2 (Objects.Enqueue 2) Objects.Q_ok;
      mk ~id:3 ~inv:4 ~res:5 Objects.Dequeue (Objects.Q_dequeued (Some 2));
      mk ~id:4 ~inv:6 ~res:7 Objects.Dequeue (Objects.Q_dequeued (Some 1));
    ]
  in
  Alcotest.(check bool) "queue lin ok" true (Linearize.check_operations Objects.queue ops);
  let bad =
    [
      mk ~id:1 ~inv:0 ~res:1 (Objects.Enqueue 1) Objects.Q_ok;
      mk ~id:2 ~inv:2 ~res:3 (Objects.Enqueue 2) Objects.Q_ok;
      (* sequential enqueues: dequeue must see 1 first *)
      mk ~id:3 ~inv:4 ~res:5 Objects.Dequeue (Objects.Q_dequeued (Some 2));
    ]
  in
  Alcotest.(check bool) "queue order violation" false
    (Linearize.check_operations Objects.queue bad)

let test_lin_register () =
  let mk ~id ~inv ~res req resp =
    {
      Trace.op_pid = 0;
      op_req = Request.make id req;
      invoke_seq = inv;
      invoke_ts = inv;
      op_init = None;
      op_recoveries = 0;
      outcome = Trace.Committed { resp; resp_seq = res; resp_ts = res };
    }
  in
  let ops =
    [
      mk ~id:1 ~inv:0 ~res:1 (Objects.Reg_write 5) Objects.Reg_ok;
      mk ~id:2 ~inv:2 ~res:3 Objects.Reg_read (Objects.Reg_value 5);
    ]
  in
  Alcotest.(check bool) "register ok" true (Linearize.check_operations Objects.register ops);
  let bad =
    [
      mk ~id:1 ~inv:0 ~res:1 (Objects.Reg_write 5) Objects.Reg_ok;
      mk ~id:2 ~inv:2 ~res:3 Objects.Reg_read (Objects.Reg_value 7);
    ]
  in
  Alcotest.(check bool) "stale read rejected" false
    (Linearize.check_operations Objects.register bad)

(* --- TAS fast checker cross-validation ------------------------------ *)

let build_ops choices =
  (* interpret an int list as an interleaved trace builder *)
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let fresh = ref 0 in
  let open_ops = ref [] in
  let closed = ref [] in
  List.iter
    (fun c ->
      let c = abs c in
      match (c mod 3, !open_ops) with
      | 0, _ | _, [] ->
          incr fresh;
          open_ops := (!fresh, next ()) :: !open_ops
      | 1, (id, inv) :: rest ->
          open_ops := rest;
          let resp = if c / 3 mod 2 = 0 then Objects.Winner else Objects.Loser in
          closed := comp ~pid:id ~id ~inv ~res:(next ()) resp :: !closed
      | _, ops ->
          (* close the oldest open op *)
          let (id, inv), rest =
            match List.rev ops with
            | last :: r -> (last, List.rev r)
            | [] -> assert false
          in
          open_ops := rest;
          let resp = if c / 3 mod 2 = 0 then Objects.Winner else Objects.Loser in
          closed := comp ~pid:id ~id ~inv ~res:(next ()) resp :: !closed)
    choices;
  let pending = List.map (fun (id, inv) -> pend ~pid:id ~id ~inv) !open_ops in
  List.rev !closed @ pending

let prop_tas_checker_agrees =
  QCheck.Test.make ~count:2000 ~name:"Tas_lin agrees with Wing-Gong"
    QCheck.(list_of_size Gen.(int_range 0 12) small_int)
    (fun choices ->
      let ops = build_ops choices in
      Tas_lin.check_one_shot ops = Linearize.check_operations Objects.tas ops)

(* --- Abstract property checker -------------------------------------- *)

let areq id = Request.make id ()

let test_abstract_good_trace () =
  let r1 = areq 1 and r2 = areq 2 in
  let evs =
    [
      Abstract_check.Invoke { seq = 0; pid = 0; req = r1 };
      Abstract_check.Invoke { seq = 1; pid = 1; req = r2 };
      Abstract_check.Commit { seq = 2; pid = 0; req = r1; hist = [ r1 ] };
      Abstract_check.Commit { seq = 3; pid = 1; req = r2; hist = [ r1; r2 ] };
    ]
  in
  Alcotest.(check bool) "good" true (Abstract_check.is_ok evs)

let test_abstract_commit_order_violation () =
  let r1 = areq 1 and r2 = areq 2 in
  let evs =
    [
      Abstract_check.Invoke { seq = 0; pid = 0; req = r1 };
      Abstract_check.Invoke { seq = 1; pid = 1; req = r2 };
      Abstract_check.Commit { seq = 2; pid = 0; req = r1; hist = [ r1 ] };
      Abstract_check.Commit { seq = 3; pid = 1; req = r2; hist = [ r2 ] };
    ]
  in
  Alcotest.(check bool) "prefix violation" false (Abstract_check.is_ok evs)

let test_abstract_abort_ordering_violation () =
  let r1 = areq 1 and r2 = areq 2 in
  let evs =
    [
      Abstract_check.Invoke { seq = 0; pid = 0; req = r1 };
      Abstract_check.Invoke { seq = 1; pid = 1; req = r2 };
      Abstract_check.Commit { seq = 2; pid = 0; req = r1; hist = [ r1; r2 ] };
      Abstract_check.Abort { seq = 3; pid = 1; req = r2; hist = [ r2 ] };
    ]
  in
  Alcotest.(check bool) "commit not prefix of abort" false (Abstract_check.is_ok evs)

let test_abstract_validity_dup () =
  let r1 = areq 1 in
  let evs =
    [
      Abstract_check.Invoke { seq = 0; pid = 0; req = r1 };
      Abstract_check.Commit { seq = 1; pid = 0; req = r1; hist = [ r1; r1 ] };
    ]
  in
  Alcotest.(check bool) "dup in history" false (Abstract_check.is_ok evs)

let test_abstract_validity_uninvoked () =
  let r1 = areq 1 and ghost = areq 99 in
  let evs =
    [
      Abstract_check.Invoke { seq = 0; pid = 0; req = r1 };
      Abstract_check.Commit { seq = 1; pid = 0; req = r1; hist = [ ghost; r1 ] };
    ]
  in
  Alcotest.(check bool) "uninvoked request" false (Abstract_check.is_ok evs);
  Alcotest.(check bool) "also rejected globally" false
    (Abstract_check.is_ok ~validity:Abstract_check.Global evs)

let test_abstract_validity_timing_modes () =
  let r1 = areq 1 and r2 = areq 2 in
  (* r2 appears in r1's commit history but is invoked later *)
  let evs =
    [
      Abstract_check.Invoke { seq = 0; pid = 0; req = r1 };
      Abstract_check.Commit { seq = 1; pid = 0; req = r1; hist = [ r1; r2 ] };
      Abstract_check.Invoke { seq = 2; pid = 1; req = r2 };
      Abstract_check.Commit { seq = 3; pid = 1; req = r2; hist = [ r1; r2 ] };
    ]
  in
  Alcotest.(check bool) "strict rejects" false (Abstract_check.is_ok evs);
  Alcotest.(check bool) "global accepts" true
    (Abstract_check.is_ok ~validity:Abstract_check.Global evs)

let test_abstract_missing_own_request () =
  let r1 = areq 1 and r2 = areq 2 in
  let evs =
    [
      Abstract_check.Invoke { seq = 0; pid = 0; req = r1 };
      Abstract_check.Invoke { seq = 1; pid = 1; req = r2 };
      Abstract_check.Commit { seq = 2; pid = 1; req = r2; hist = [ r1 ] };
    ]
  in
  Alcotest.(check bool) "history misses own request" false (Abstract_check.is_ok evs)

let test_abstract_init_ordering () =
  let r1 = areq 1 and r2 = areq 2 in
  let evs_ok =
    [
      Abstract_check.Init { seq = 0; pid = 0; req = r1; hist = [ r1 ] };
      Abstract_check.Commit { seq = 1; pid = 0; req = r1; hist = [ r1 ] };
      Abstract_check.Init { seq = 2; pid = 1; req = r2; hist = [ r1 ] };
      Abstract_check.Commit { seq = 3; pid = 1; req = r2; hist = [ r1; r2 ] };
    ]
  in
  Alcotest.(check bool) "init ordering ok" true (Abstract_check.is_ok evs_ok);
  let evs_bad =
    [
      Abstract_check.Init { seq = 0; pid = 0; req = r1; hist = [ r1; r2 ] };
      Abstract_check.Invoke { seq = 1; pid = 1; req = r2 };
      Abstract_check.Commit { seq = 2; pid = 0; req = r1; hist = [ r1 ] };
    ]
  in
  Alcotest.(check bool) "init not prefix of commit" false (Abstract_check.is_ok evs_bad)

(* --- Trace recorder --------------------------------------------------- *)

let test_trace_operations_pairing () =
  let tr : (unit, string, int) Trace.t = Trace.create () in
  let r1 = Request.make 1 () and r2 = Request.make 2 () in
  Trace.invoke tr ~pid:0 r1;
  Trace.init tr ~pid:1 r2 7;
  Trace.commit tr ~pid:0 r1 "ok";
  Trace.abort tr ~pid:1 r2 9;
  let ops = Trace.operations (Trace.events tr) in
  Alcotest.(check int) "two ops" 2 (List.length ops);
  let o1 = List.nth ops 0 and o2 = List.nth ops 1 in
  Alcotest.(check bool) "o1 committed" true
    (match o1.Trace.outcome with Trace.Committed { resp = "ok"; _ } -> true | _ -> false);
  Alcotest.(check bool) "o2 init" true (o2.Trace.op_init = Some 7);
  Alcotest.(check bool) "o2 aborted with 9" true
    (match o2.Trace.outcome with Trace.Aborted { switch = 9; _ } -> true | _ -> false)

let test_trace_malformed () =
  let tr : (unit, string, int) Trace.t = Trace.create () in
  let r1 = Request.make 1 () in
  Trace.commit tr ~pid:0 r1 "oops";
  (try
     ignore (Trace.operations (Trace.events tr));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  let tr2 : (unit, string, int) Trace.t = Trace.create () in
  Trace.invoke tr2 ~pid:0 r1;
  Trace.invoke tr2 ~pid:1 r1;
  try
    ignore (Trace.operations (Trace.events tr2));
    Alcotest.fail "expected Invalid_argument on double invoke"
  with Invalid_argument _ -> ()

(* --- large histories and the search budget --------------------------- *)

(* a sequential TAS history of [k] operations: first wins, rest lose *)
let sequential_tas_ops k =
  List.init k (fun i ->
      comp ~pid:0 ~id:(i + 1) ~inv:(2 * i)
        ~res:((2 * i) + 1)
        (if i = 0 then Objects.Winner else Objects.Loser))

let test_lin_scalable_large_histories () =
  (* far past the word-sized bitmask: 200- and 1000-op histories are
     decided — both accepted when linearizable and refuted when not *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%d sequential ops accepted" k)
        true
        (Linearize.check_operations Objects.tas (sequential_tas_ops k)))
    [ 200; 1000 ];
  let bad =
    sequential_tas_ops 200 @ [ comp ~pid:1 ~id:2000 ~inv:500 ~res:501 Objects.Winner ]
  in
  Alcotest.(check bool) "201-op second winner refuted" false
    (Linearize.check_operations Objects.tas bad)

let test_lin_search_budget () =
  let ops = sequential_tas_ops 100 in
  Alcotest.check_raises "tiny budget exhausts" (Linearize.Search_budget_exceeded 5)
    (fun () -> ignore (Linearize.check_operations ~budget:5 Objects.tas ops));
  Alcotest.(check bool) "ample budget decides" true
    (Linearize.check_operations ~budget:1_000_000 Objects.tas ops)

(* --- known-answer battery -------------------------------------------- *)

(* generic hand-built operations (comp/pend above are TAS-specific) *)
let mkop ~id ~inv ~res req resp =
  {
    Trace.op_pid = 0;
    op_req = Request.make id req;
    invoke_seq = inv;
    invoke_ts = inv;
    op_init = None;
    op_recoveries = 0;
    outcome = Trace.Committed { resp; resp_seq = res; resp_ts = res };
  }

let mkpend ~id ~inv req =
  {
    Trace.op_pid = 0;
    op_req = Request.make id req;
    invoke_seq = inv;
    invoke_ts = inv;
    op_init = None;
    op_recoveries = 0;
    outcome = Trace.Pending;
  }

let mkabort ~id ~inv ~res req =
  {
    Trace.op_pid = 0;
    op_req = Request.make id req;
    invoke_seq = inv;
    invoke_ts = inv;
    op_init = None;
    op_recoveries = 0;
    outcome = Trace.Aborted { switch = (); resp_seq = res; resp_ts = res };
  }

(* Product of two int registers as one monolithic spec; the payload names
   the register. Pins down compositional splitting: [check_partitioned]
   by register index must agree with the monolithic product-spec verdict
   (the criterion factors — no cross-register constraint). *)
type pair_req = PW of int * int | PR of int

type pair_resp = P_ok | P_val of int

let pair_register : (int * int, pair_req, pair_resp) Spec.t =
  Spec.make ~name:"pair-register" ~init:(0, 0)
    ~apply:(fun (a, b) req ->
      match req with
      | PW (0, v) -> ((v, b), P_ok)
      | PW (_, v) -> ((a, v), P_ok)
      | PR 0 -> ((a, b), P_val a)
      | PR _ -> ((a, b), P_val b))
    ()

(* the per-partition view: every op in a partition touches one register *)
let proj_register _idx : (int, pair_req, pair_resp) Spec.t =
  Spec.make ~name:"proj-register" ~init:0
    ~apply:(fun s req ->
      match req with PW (_, v) -> (v, P_ok) | PR _ -> (s, P_val s))
    ()

let pair_key (o : _ Trace.operation) =
  match Request.payload o.Trace.op_req with PW (i, _) | PR i -> i

let check_pair_both what expected ops =
  Alcotest.(check bool) (what ^ " (monolithic product)") expected
    (Linearize.check_operations pair_register ops);
  Alcotest.(check bool) (what ^ " (partitioned)") expected
    (Linearize.check_partitioned ~key:pair_key ~spec:proj_register ops)

let test_register_swap_battery () =
  (* the classic store-buffer anomaly, sequentialised:
       P0: X := 1; read Y -> 0        P1: Y := 1; read X -> 0
     each read follows the write it misses in real time *)
  let bad =
    [
      mkop ~id:1 ~inv:0 ~res:1 (PW (0, 1)) P_ok;
      mkop ~id:2 ~inv:2 ~res:3 (PW (1, 1)) P_ok;
      mkop ~id:3 ~inv:4 ~res:5 (PR 1) (P_val 0);
      mkop ~id:4 ~inv:6 ~res:7 (PR 0) (P_val 0);
    ]
  in
  check_pair_both "sequential swap anomaly" false bad;
  (* overlapping variant: each read is concurrent with (or precedes) the
     write it misses, so both zeros are explainable *)
  let ok =
    [
      mkop ~id:1 ~inv:0 ~res:7 (PW (0, 1)) P_ok;
      mkop ~id:2 ~inv:1 ~res:2 (PR 1) (P_val 0);
      mkop ~id:3 ~inv:3 ~res:4 (PW (1, 1)) P_ok;
      mkop ~id:4 ~inv:5 ~res:6 (PR 0) (P_val 0);
    ]
  in
  check_pair_both "overlapping swap" true ok

let test_pending_resurrection_battery () =
  (* a pending (never-responded) enqueue may still be linearized to
     explain a later dequeue... *)
  let ops =
    [
      mkpend ~id:1 ~inv:0 (Objects.Enqueue 5);
      mkop ~id:2 ~inv:1 ~res:2 Objects.Dequeue (Objects.Q_dequeued (Some 5));
    ]
  in
  Alcotest.(check bool) "pending enqueue resurrected" true
    (Linearize.check_operations Objects.queue ops);
  (* ...but a value never enqueued at all cannot materialise *)
  let bad =
    [ mkop ~id:2 ~inv:1 ~res:2 Objects.Dequeue (Objects.Q_dequeued (Some 5)) ]
  in
  Alcotest.(check bool) "impossible dequeue refuted" false
    (Linearize.check_operations Objects.queue bad)

let test_aborted_effect_battery () =
  (* Section 5: an aborted operation of a safely composable module may or
     may not have taken effect — both continuations must be accepted *)
  let took_effect =
    [
      mkabort ~id:1 ~inv:0 ~res:1 (Objects.Enqueue 9);
      mkop ~id:2 ~inv:2 ~res:3 Objects.Dequeue (Objects.Q_dequeued (Some 9));
    ]
  in
  Alcotest.(check bool) "aborted enqueue took effect" true
    (Linearize.check_operations Objects.queue took_effect);
  let no_effect =
    [
      mkabort ~id:1 ~inv:0 ~res:1 (Objects.Enqueue 9);
      mkop ~id:2 ~inv:2 ~res:3 Objects.Dequeue (Objects.Q_dequeued None);
    ]
  in
  Alcotest.(check bool) "aborted enqueue took no effect" true
    (Linearize.check_operations Objects.queue no_effect)

(* single-shot consensus object: first applied proposal decides *)
let consensus_spec : (int option, int, int) Spec.t =
  Spec.make ~name:"consensus" ~init:None
    ~apply:(fun s v -> match s with None -> (Some v, v) | Some d -> (Some d, d))
    ()

let test_consensus_clobber_battery () =
  (* the disagreement shape of the fuzzer-found bakery Dec-clobber bug
     (see test_fuzz.ml's regression): an early real decision is
     overwritten and a later process decides its own value. As a history:
     propose(100) -> 100 completes strictly before propose(101) -> 101
     is invoked; no consensus object explains both. *)
  let bad = [ mkop ~id:1 ~inv:0 ~res:1 100 100; mkop ~id:2 ~inv:2 ~res:3 101 101 ] in
  Alcotest.(check bool) "sequential disagreement refuted" false
    (Linearize.check_operations consensus_spec bad);
  (* concurrent proposals may legitimately decide the first one *)
  let ok = [ mkop ~id:1 ~inv:0 ~res:3 100 100; mkop ~id:2 ~inv:1 ~res:2 101 100 ] in
  Alcotest.(check bool) "concurrent agreement accepted" true
    (Linearize.check_operations consensus_spec ok)

let test_partition_key_pending_hazard () =
  (* the compositional split is only sound when [key] names each
     operation's true object — including pending ones. Shape found by the
     fuzzer in the long-lived TAS workload under crash injection: a
     process crashes inside test-and-set after winning but before its
     round is recorded, leaving a Pending op of unknown round. Globally
     the history is linearizable (the pending op completes as the
     Winner); a key that dumps unknown ops into a catch-all partition
     strands the committed Loser alone against a fresh spec. *)
  let pending_winner = mkpend ~id:1 ~inv:0 Objects.Test_and_set in
  let committed_loser =
    mkop ~id:2 ~inv:1 ~res:2 Objects.Test_and_set Objects.Loser
  in
  let ops = [ pending_winner; committed_loser ] in
  Alcotest.(check bool) "globally linearizable" true
    (Linearize.check_operations Objects.tas ops);
  let accurate_key _ = 0 in
  Alcotest.(check bool) "accurate key: split agrees" true
    (Linearize.check_partitioned ~key:accurate_key
       ~spec:(fun _ -> Objects.tas)
       ops);
  let lossy_key (o : _ Trace.operation) =
    match o.Trace.outcome with Trace.Pending -> -1 | _ -> 0
  in
  Alcotest.(check bool) "lossy key: false violation (pinned hazard)" false
    (Linearize.check_partitioned ~key:lossy_key
       ~spec:(fun _ -> Objects.tas)
       ops)

(* --- memo soundness: equal_state must be a congruence ------------------ *)

(* Three-state spec whose probe distinguishes states 1 and 2. The coarse
   equality below conflates them (zero / nonzero), breaking the
   congruence requirement: the search first refutes the x;y ordering and
   memoizes its final state, then wrongly "remembers" the y;x state as
   already refuted — a false negative that exact equality does not
   produce. This pins the documented memo hazard for BOTH engines (the
   seed oracle and the scalable checker share the memo idea). *)
let trap_apply s = function
  | "w1" -> (1, "ok")
  | "w2" -> (2, "ok")
  | "probe" -> (s, if s = 1 then "one" else "other")
  | _ -> (s, "?")

let trap_exact : (int, string, string) Spec.t =
  Spec.make ~name:"trap" ~init:0 ~apply:trap_apply ()

let trap_coarse : (int, string, string) Spec.t =
  Spec.make ~name:"trap-coarse" ~init:0 ~apply:trap_apply
    ~equal_state:(fun a b -> a = 0 && b = 0 || (a <> 0 && b <> 0))
    ~hash_state:(fun a -> if a = 0 then 0 else 1)
    ()

(* hash collisions, by contrast, may never change verdicts: membership is
   decided by exact equality inside the bucket *)
let trap_const_hash : (int, string, string) Spec.t =
  Spec.make ~name:"trap-const-hash" ~init:0 ~apply:trap_apply
    ~hash_state:(fun _ -> 0) ()

let trap_ops =
  (* x = w1 and y = w2 overlap (x responds first, and first in list
     order, so both engines explore x;y before y;x); the probe then
     requires final state 1, i.e. the y;x witness *)
  [
    mkop ~id:1 ~inv:0 ~res:2 "w1" "ok";
    mkop ~id:2 ~inv:1 ~res:3 "w2" "ok";
    mkop ~id:3 ~inv:4 ~res:5 "probe" "one";
  ]

let test_memo_congruence_trap () =
  Alcotest.(check bool) "scalable, exact equality: accepted" true
    (Linearize.check_operations trap_exact trap_ops);
  Alcotest.(check bool) "seed oracle, exact equality: accepted" true
    (Linearize_ref.check_operations trap_exact trap_ops);
  (* the documented hazard, pinned: a non-congruent equal_state turns the
     memo unsound and yields a false negative *)
  Alcotest.(check bool) "scalable, coarse equality: false negative" false
    (Linearize.check_operations trap_coarse trap_ops);
  Alcotest.(check bool) "seed oracle, coarse equality: false negative" false
    (Linearize_ref.check_operations trap_coarse trap_ops)

let test_memo_hash_collision_safe () =
  Alcotest.(check bool) "constant hash_state: verdict unchanged (true)" true
    (Linearize.check_operations trap_const_hash trap_ops);
  let bad = [ mkop ~id:1 ~inv:0 ~res:1 "w1" "ok"; mkop ~id:2 ~inv:2 ~res:3 "probe" "other" ] in
  (* probe after w1 alone must answer "one" *)
  Alcotest.(check bool) "constant hash_state: verdict unchanged (false)" false
    (Linearize.check_operations trap_const_hash bad)

let tests =
  [
    Alcotest.test_case "lin: single winner" `Quick test_lin_single_winner;
    Alcotest.test_case "lin: lone loser rejected" `Quick test_lin_single_loser_rejected;
    Alcotest.test_case "lin: pending explains loser" `Quick test_lin_loser_explained_by_pending;
    Alcotest.test_case "lin: pending too late" `Quick test_lin_pending_too_late;
    Alcotest.test_case "lin: two winners rejected" `Quick test_lin_two_winners_rejected;
    Alcotest.test_case "lin: winner after loser" `Quick test_lin_winner_after_loser_rejected;
    Alcotest.test_case "lin: sequential" `Quick test_lin_sequential_ok;
    Alcotest.test_case "lin: queue" `Quick test_lin_queue;
    Alcotest.test_case "lin: register" `Quick test_lin_register;
    QCheck_alcotest.to_alcotest ~rand:(Test_seed.rand ()) prop_tas_checker_agrees;
    Alcotest.test_case "lin: 200/1000-op histories decided" `Quick
      test_lin_scalable_large_histories;
    Alcotest.test_case "lin: search budget" `Quick test_lin_search_budget;
    Alcotest.test_case "battery: register swap (product + partitioned)" `Quick
      test_register_swap_battery;
    Alcotest.test_case "battery: pending-op resurrection" `Quick
      test_pending_resurrection_battery;
    Alcotest.test_case "battery: aborted op may or may not take effect" `Quick
      test_aborted_effect_battery;
    Alcotest.test_case "battery: consensus Dec-clobber shape" `Quick
      test_consensus_clobber_battery;
    Alcotest.test_case "battery: partition key must cover pending ops" `Quick
      test_partition_key_pending_hazard;
    Alcotest.test_case "memo: non-congruent equal_state is unsound (pinned)" `Quick
      test_memo_congruence_trap;
    Alcotest.test_case "memo: hash collisions cannot change verdicts" `Quick
      test_memo_hash_collision_safe;
    Alcotest.test_case "abstract: good trace" `Quick test_abstract_good_trace;
    Alcotest.test_case "abstract: commit order" `Quick test_abstract_commit_order_violation;
    Alcotest.test_case "abstract: abort ordering" `Quick test_abstract_abort_ordering_violation;
    Alcotest.test_case "abstract: dup validity" `Quick test_abstract_validity_dup;
    Alcotest.test_case "abstract: uninvoked validity" `Quick test_abstract_validity_uninvoked;
    Alcotest.test_case "abstract: validity timing modes" `Quick test_abstract_validity_timing_modes;
    Alcotest.test_case "abstract: missing own request" `Quick test_abstract_missing_own_request;
    Alcotest.test_case "abstract: init ordering" `Quick test_abstract_init_ordering;
    Alcotest.test_case "trace: operation pairing" `Quick test_trace_operations_pairing;
    Alcotest.test_case "trace: malformed" `Quick test_trace_malformed;
  ]
