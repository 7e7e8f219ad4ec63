(* Differential testing of the scalable linearizability checker
   (Linearize) against the seed word-sized-bitmask implementation, kept
   verbatim in this directory as Linearize_ref exactly for this purpose.

   A choice-list interpreter builds random well-formed histories of up to
   ~40 operations (within the oracle's 62-op cap) with mixed
   committed / aborted / pending outcomes. Responses are drawn from a
   response-order linearization witness and then randomly corrupted, so
   the generator covers both linearizable and non-linearizable histories
   for every spec. The property is verdict agreement:

     Linearize_ref  =  Linearize

   across TAS, register, fetch-and-increment and queue specs, plus the
   compositional front-end: on a two-register product object,
   [check_partitioned] by register index must agree with the monolithic
   product-spec check (the compositionality theorem, exercised on random
   histories).

   CI runs this suite under several SCS_QCHECK_SEED values. *)

open Scs_spec
open Scs_history

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

(* Interpret a list of small ints as history-building choices:
   - [c mod 5 < 2] (or nothing open): invoke a fresh operation, payload
     chosen by [payload (c / 5)];
   - [c mod 5 = 2]: commit the oldest open operation;
   - [c mod 5 = 3]: commit the newest open operation;
   - [c mod 5 = 4]: abort the oldest open operation.
   Leftover open operations stay pending. Committed responses come from
   applying the spec in commit order (a valid witness — commits are
   sequential in generation time), then pass through [corrupt (c / 5)],
   which flips some of them to make non-linearizable histories. Aborted
   operations are not applied: dropping them is always consistent. *)
let interp (spec : _ Spec.t) ~payload ~corrupt choices =
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let next_id = ref 0 in
  let state = ref spec.Spec.init in
  let opened = ref [] (* newest first *) in
  let out = ref [] in
  let take_oldest () =
    match List.rev !opened with
    | [] -> None
    | o :: _ ->
        opened := List.filter (fun x -> x != o) !opened;
        Some o
  in
  let take_newest () =
    match !opened with
    | [] -> None
    | o :: rest ->
        opened := rest;
        Some o
  in
  List.iter
    (fun c ->
      let c = abs c in
      let k = c / 5 in
      match (c mod 5, !opened) with
      | (0 | 1), _ | _, [] ->
          incr next_id;
          opened := (!next_id, payload k, next ()) :: !opened
      | 2, _ | 3, _ -> (
          match (if c mod 5 = 2 then take_oldest () else take_newest ()) with
          | None -> ()
          | Some (id, pl, inv) ->
              let st', resp = spec.Spec.apply !state pl in
              state := st';
              out := mkop ~id ~inv ~res:(next ()) pl (corrupt k resp) :: !out)
      | _, _ -> (
          match take_oldest () with
          | None -> ()
          | Some (id, pl, inv) -> out := mkabort ~id ~inv ~res:(next ()) pl :: !out))
    choices;
  List.rev !out @ List.rev_map (fun (id, pl, inv) -> mkpend ~id ~inv pl) !opened

let agree spec ops = Linearize_ref.check_operations spec ops = Linearize.check_operations spec ops

let gen_choices = QCheck.(list_of_size Gen.(int_range 0 40) small_int)

let prop name spec ~payload ~corrupt =
  QCheck.Test.make ~count:2500 ~name gen_choices (fun choices ->
      agree spec (interp spec ~payload ~corrupt choices))

let prop_tas =
  prop "diff: tas agrees" Objects.tas
    ~payload:(fun _ -> Objects.Test_and_set)
    ~corrupt:(fun k r ->
      if k mod 7 = 0 then
        match r with Objects.Winner -> Objects.Loser | Objects.Loser -> Objects.Winner
      else r)

let prop_register =
  prop "diff: register agrees" Objects.register
    ~payload:(fun k -> if k mod 2 = 0 then Objects.Reg_write (k mod 5) else Objects.Reg_read)
    ~corrupt:(fun k r ->
      match r with
      | Objects.Reg_value v when k mod 7 = 0 -> Objects.Reg_value (v + 1)
      | r -> r)

let prop_fai =
  prop "diff: fetch-and-increment agrees" Objects.fetch_and_increment
    ~payload:(fun k -> if k mod 3 = 0 then Objects.Fai_read else Objects.Fai_inc)
    ~corrupt:(fun k (Objects.Fai_value v) ->
      if k mod 7 = 0 then Objects.Fai_value (v + 1) else Objects.Fai_value v)

let prop_queue =
  prop "diff: queue agrees" Objects.queue
    ~payload:(fun k -> if k mod 2 = 0 then Objects.Enqueue (k mod 8) else Objects.Dequeue)
    ~corrupt:(fun k r ->
      match r with
      | Objects.Q_dequeued v when k mod 7 = 0 ->
          Objects.Q_dequeued (match v with Some _ -> None | None -> Some 3)
      | r -> r)

(* ---- compositional front-end ------------------------------------------ *)

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

let proj_register _idx : (int, pair_req, pair_resp) Spec.t =
  Spec.make ~name:"proj-register" ~init:0
    ~apply:(fun s req ->
      match req with PW (_, v) -> (v, P_ok) | PR _ -> (s, P_val s))
    ()

let pair_key (o : _ Trace.operation) =
  match Request.payload o.Trace.op_req with PW (i, _) | PR i -> i

let prop_partitioned =
  QCheck.Test.make ~count:2500
    ~name:"diff: check_partitioned = monolithic product check" gen_choices
    (fun choices ->
      let ops =
        interp pair_register
          ~payload:(fun k ->
            let reg = k mod 2 in
            if k / 2 mod 2 = 0 then PW (reg, k mod 5) else PR reg)
          ~corrupt:(fun k r ->
            match r with P_val v when k mod 11 = 0 -> P_val (v + 1) | r -> r)
          choices
      in
      Linearize.check_operations pair_register ops
      = Linearize.check_partitioned ~key:pair_key ~spec:proj_register ops)

(* ---- sequential consistency ------------------------------------------- *)

(* Well-formed variant of [interp]: every operation is bound to a process
   drawn from a free-pid pool (freed when the operation commits), so
   each process's operations are sequential — the history shape
   {!Linearize.check_sc_operations} is specified for. Choices that would
   open an operation with no pid free commit the oldest instead.

   Aborts do NOT free their pid (the process is treated as crashed), so
   aborted operations are process-final. That matters for the
   implication property below: the linearizability checker lets an
   unresponded operation float past later operations of the same
   process, while the SC checker pins its effect to its program-order
   slot, so a process that continues after an abort can be linearizable
   yet not SC (see the mli note on check_sc_operations). With
   process-final aborts the implication is a theorem. *)
let interp_wf (spec : _ Spec.t) ~n_pids ~payload ~corrupt choices =
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let next_id = ref 0 in
  let state = ref spec.Spec.init in
  let opened = ref [] (* (id, payload, inv, pid), newest first *) in
  let free = ref (List.init n_pids (fun p -> p)) in
  let out = ref [] in
  let close ~abort o =
    let id, pl, inv, pid = o in
    if abort then
      out :=
        { (mkabort ~id ~inv ~res:(next ()) pl) with Trace.op_pid = pid } :: !out
    else begin
      free := pid :: !free;
      let st', resp = spec.Spec.apply !state pl in
      state := st';
      out :=
        { (mkop ~id ~inv ~res:(next ()) pl (corrupt (id + inv) resp)) with
          Trace.op_pid = pid }
        :: !out
    end
  in
  let take_oldest () =
    match List.rev !opened with
    | [] -> None
    | o :: _ ->
        opened := List.filter (fun x -> x != o) !opened;
        Some o
  in
  List.iter
    (fun c ->
      let c = abs c in
      let k = c / 4 in
      match (c mod 4, !opened, !free) with
      | 0, _, pid :: rest | _, [], pid :: rest ->
          free := rest;
          incr next_id;
          opened := (!next_id, payload k, next (), pid) :: !opened
      | (1 | 0), _, _ | 2, _, _ -> (
          match take_oldest () with None -> () | Some o -> close ~abort:false o)
      | _, _, _ -> (
          match take_oldest () with None -> () | Some o -> close ~abort:true o))
    choices;
  List.rev !out
  @ List.rev_map
      (fun (id, pl, inv, pid) -> { (mkpend ~id ~inv pl) with Trace.op_pid = pid })
      !opened

(* Linearizability implies sequential consistency (dropping the real-time
   constraint only enlarges the set of admissible orders). *)
let prop_sc name spec ~payload ~corrupt =
  QCheck.Test.make ~count:1500 ~name gen_choices (fun choices ->
      let ops = interp_wf spec ~n_pids:5 ~payload ~corrupt choices in
      (not (Linearize.check_operations spec ops)) || Linearize.check_sc_operations spec ops)

let prop_sc_register =
  prop_sc "sc: linearizable => SC (register)" Objects.register
    ~payload:(fun k -> if k mod 2 = 0 then Objects.Reg_write (k mod 5) else Objects.Reg_read)
    ~corrupt:(fun k r ->
      match r with
      | Objects.Reg_value v when k mod 7 = 0 -> Objects.Reg_value (v + 1)
      | r -> r)

let prop_sc_queue =
  prop_sc "sc: linearizable => SC (queue)" Objects.queue
    ~payload:(fun k -> if k mod 2 = 0 then Objects.Enqueue (k mod 8) else Objects.Dequeue)
    ~corrupt:(fun k r ->
      match r with
      | Objects.Q_dequeued v when k mod 7 = 0 ->
          Objects.Q_dequeued (match v with Some _ -> None | None -> Some 3)
      | r -> r)

let prop_sc_tas =
  prop_sc "sc: linearizable => SC (tas)" Objects.tas
    ~payload:(fun _ -> Objects.Test_and_set)
    ~corrupt:(fun k r ->
      if k mod 7 = 0 then
        match r with Objects.Winner -> Objects.Loser | Objects.Loser -> Objects.Winner
      else r)

(* The differential fuzzing harness's own soundness gate: with lag 0 the
   SC register backend is observationally atomic, so on every workload —
   including the known-failing ones, which must fail identically — the
   two backends' verdicts agree run for run. *)
let test_sc_lag0_verdict_identity () =
  List.iter
    (fun (w : Scs_workload.Fuzz_run.t) ->
      let report =
        Scs_workload.Diff_fuzz.run
          ~policies:[ Scs_workload.Diff_fuzz.Uniform; Scs_workload.Diff_fuzz.Sticky 0.25 ]
          ~runs:12 ~seed:42 ~max_findings:0 ~shrink:false w ~n:w.Scs_workload.Fuzz_run.default_n
          ~lag:0
      in
      List.iter
        (fun (s : Scs_workload.Diff_fuzz.policy_stats) ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: no SC-only divergence at lag 0"
               w.Scs_workload.Fuzz_run.name s.Scs_workload.Diff_fuzz.dp_policy)
            0 s.Scs_workload.Diff_fuzz.dp_sc_only;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: no lin-only divergence at lag 0"
               w.Scs_workload.Fuzz_run.name s.Scs_workload.Diff_fuzz.dp_policy)
            0 s.Scs_workload.Diff_fuzz.dp_lin_only)
        report.Scs_workload.Diff_fuzz.dr_stats)
    Scs_workload.Fuzz_run.all

let tests =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Test_seed.rand ()))
    [
      prop_tas; prop_register; prop_fai; prop_queue; prop_partitioned;
      prop_sc_register; prop_sc_queue; prop_sc_tas;
    ]
  @ [
      Alcotest.test_case "sc-lag 0 differential runs are verdict-identical" `Slow
        test_sc_lag0_verdict_identity;
    ]
