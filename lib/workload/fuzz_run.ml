open Scs_spec
open Scs_history
open Scs_composable
open Scs_sim

type instance = Workload_def.instance = { setup : Sim.t -> unit; check : Sim.t -> unit }

type t = Workload_def.t = {
  name : string;
  describe : string;
  default_n : int;
  expect_failures : bool;
  instantiate : ?backend:Scs_prims.Backend.t -> n:int -> unit -> instance;
}

let violation fmt = Printf.ksprintf (fun s -> raise (Fuzz.Violation s)) fmt

let note_large nops = if nops > Fuzz.large_history then Fuzz.checked_large ()

(* Each run gets its own workload instance ([Fuzz.run ~instantiate]), so a
   plain ref is the right channel between a run's [setup] and its [check]
   — even when checks are verified on worker domains, no two runs share a
   slot. *)
let slot () = ref None
let get slot = Option.get !slot

(* ---- one-shot TAS workloads ------------------------------------------- *)

(* The backend's primitive maker: every workload setup goes through it,
   so fuzzing (and differential fuzzing) select sim-linearizable vs
   sim-SC uniformly. *)
let prims_of backend = Scs_prims.Backend.sim_prims backend

let check_strictly_linearizable what slot _sim =
  let ops = Trace.operations (Trace.events (get slot)) in
  if not (Tas_lin.check_one_shot ops) then violation "%s not strictly linearizable" what

(* A one-shot TAS workload checked against strict linearizability. *)
let strict_tas name ~describe ~expect_failures ~algo ~what =
  {
    name;
    describe;
    default_n = 4;
    expect_failures;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        {
          setup = (fun sim -> s := Some (Tas_run.spawn_traced ~backend ~n ~algo sim));
          check = check_strictly_linearizable what s;
        });
  }

(* F-1 finder: the verbatim composed algorithm against the strict
   Herlihy–Wing criterion it is known to violate from n = 3 on. *)
let f1 =
  strict_tas "f1" ~algo:Tas_run.Composed ~what:"composed A1∘A2" ~expect_failures:true
    ~describe:"composed A1∘A2 vs strict linearizability (known failing, finding F-1)"

(* F-2 finder: Invariant 4 of the Lemma 4 proof on the bare A1 — no
   operation aborting with W may be invoked after a loser committed. *)
let f2 =
  {
    name = "f2";
    describe = "Invariant 4 on bare A1 (known failing, finding F-2)";
    default_n = 4;
    expect_failures = true;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        let setup sim =
          let module P = (val prims_of backend sim) in
          let module A1 = Scs_tas.A1.Make (P) in
          let a1 = A1.create ~name:"a1" () in
          let tr : Tas_run.tas_trace = Trace.create ~clock:(fun () -> Sim.clock sim) () in
          s := Some tr;
          for pid = 0 to n - 1 do
            Sim.spawn sim pid (fun () ->
                let req = Request.make pid Objects.Test_and_set in
                Trace.invoke tr ~pid req;
                match A1.apply a1 ~pid None with
                | Outcome.Commit r -> Trace.commit tr ~pid req r
                | Outcome.Abort v -> Trace.abort tr ~pid req v)
          done
        in
        let check _sim =
          let ops = Trace.operations (Trace.events (get s)) in
          let resp_seq (o : _ Trace.operation) =
            match o.Trace.outcome with
            | Trace.Committed { resp_seq; _ } | Trace.Aborted { resp_seq; _ } -> resp_seq
            | Trace.Pending -> max_int
          in
          let first_loser =
            List.fold_left
              (fun m (o : _ Trace.operation) ->
                match o.Trace.outcome with
                | Trace.Committed { resp = Objects.Loser; _ } -> min m (resp_seq o)
                | _ -> m)
              max_int ops
          in
          List.iter
            (fun (o : _ Trace.operation) ->
              match o.Trace.outcome with
              | Trace.Aborted { switch = Tas_switch.W; _ }
                when o.Trace.invoke_seq > first_loser ->
                  violation "Invariant 4 violated: W-abort invoked after a loser committed"
              | _ -> ())
            ops
        in
        { setup; check });
  }

(* Winner uniqueness + safe composability of the composed algorithm:
   must hold on every schedule (Theorem 2 territory), so any violation
   is a real regression. *)
let tas_composed =
  {
    name = "tas-composed";
    describe = "composed A1∘A2: winner uniqueness + Definition 2 interpretation";
    default_n = 4;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        let check _sim =
          let evs = Trace.events (get s) in
          let ops = Trace.operations evs in
          let committed, winners =
            List.fold_left
              (fun (c, w) (o : _ Trace.operation) ->
                match o.Trace.outcome with
                | Trace.Committed { resp = Objects.Winner; _ } -> (c + 1, w + 1)
                | Trace.Committed _ -> (c + 1, w)
                | _ -> (c, w))
              (0, 0) ops
          in
          if winners > 1 then violation "%d winners" winners;
          if committed = n && winners = 0 then violation "all committed, no winner";
          if committed = List.length ops then
            match Tas_interp.check_events evs with
            | Ok () -> ()
            | Error e -> violation "no Definition 2 interpretation: %s" e
        in
        {
          setup =
            (fun sim -> s := Some (Tas_run.spawn_traced ~backend ~n ~algo:Tas_run.Composed sim));
          check;
        });
  }

let tas_strict =
  strict_tas "tas-strict" ~algo:Tas_run.Strict ~what:"strict variant" ~expect_failures:false
    ~describe:"strict-variant A1∘A2 vs strict linearizability (finding F-3)"

let tas_solo_fast =
  strict_tas "tas-solo-fast" ~algo:Tas_run.Solo_fast ~what:"solo-fast variant"
    ~expect_failures:false ~describe:"Appendix B solo-fast variant vs strict linearizability"

(* ---- splitter --------------------------------------------------------- *)

let splitter =
  {
    name = "splitter";
    describe = "Moir–Anderson splitter: at most one Stop per era";
    default_n = 4;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        let setup sim =
          let module P = (val prims_of backend sim) in
          let module Sp = Scs_consensus.Splitter.Make (P) in
          let sp = Sp.create ~name:"split" () in
          let results = Array.make n None in
          s := Some results;
          for pid = 0 to n - 1 do
            Sim.spawn sim pid (fun () -> results.(pid) <- Some (Sp.split sp ~pid))
          done
        in
        let check _sim =
          let results = get s in
          let stops =
            Array.fold_left
              (fun acc r ->
                if r = Some Scs_consensus.Splitter.Stop then acc + 1 else acc)
              0 results
          in
          if stops > 1 then violation "%d processes returned Stop" stops
        in
        { setup; check });
  }

(* ---- consensus chain -------------------------------------------------- *)

let consensus_chain =
  {
    name = "consensus-chain";
    describe = "split>bakery>cas chain: agreement + validity";
    default_n = 3;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        let setup sim =
          let module P = (val prims_of backend sim) in
          let inst : int Scs_consensus.Consensus_intf.t =
            Cons_run.make_instance ~algo:Cons_run.Chain3 ~n (module P)
          in
          let outcomes = Array.make n None in
          s := Some outcomes;
          for pid = 0 to n - 1 do
            Sim.spawn sim pid (fun () ->
                outcomes.(pid) <-
                  Some (inst.Scs_consensus.Consensus_intf.run ~pid ~old:None (100 + pid)))
          done
        in
        let check _sim =
          let outcomes = get s in
          let decisions =
            Array.to_list outcomes
            |> List.filter_map (function
                 | Some (Outcome.Commit (Some d)) -> Some d
                 | _ -> None)
          in
          (match decisions with
          | [] -> ()
          | d :: rest ->
              if not (List.for_all (fun x -> x = d) rest) then
                violation "agreement violated: decisions disagree");
          (* validity vs all proposals, not just recorded ones — a
             crashed proposer's value may legitimately be decided *)
          List.iter
            (fun d -> if d < 100 || d >= 100 + n then violation "invalid decision %d" d)
            decisions
        in
        { setup; check });
  }

(* ---- recoverable consensus -------------------------------------------- *)

(* Crash-recovery workloads: one abortable-consensus proposal per
   process, with [Sim.set_recovery] installed so that a crash-recover
   fuzz policy re-admits the crashed process into the algorithm's
   recovery procedure. The trace records the recovery as a re-invocation
   of the in-flight request ([Trace.recover]), and the check starts from
   trace well-formedness under that model.

   The check deliberately does NOT linearize the proposals against a
   consensus spec: an aborted (or pending) proposal may still have taken
   effect inside the instance — that is the whole point of abortable
   objects — so a naive spec check yields false violations. The sound
   properties are agreement, validity and switch coherence: every
   decision value that escapes (committed or carried out by an abort)
   is one of the proposals, and they all agree. *)

type recov_trace = (int, int option, int option) Trace.t

type recov_state = {
  rc_tr : recov_trace;
  rc_outcomes : (int option, int option) Outcome.t option array;
  rc_inflight : int Request.t option array;
}

let recoverable_setup ~n ~prims ~algo slot sim =
  let module P = (val prims sim : Scs_prims.Prims_intf.S) in
  let propose, recover = algo (module P : Scs_prims.Prims_intf.S) in
  let tr : recov_trace = Trace.create ~clock:(fun () -> Sim.clock sim) () in
  let st =
    {
      rc_tr = tr;
      rc_outcomes = Array.make n None;
      rc_inflight = Array.make n None;
    }
  in
  slot := Some st;
  let record pid req outcome =
    st.rc_inflight.(pid) <- None;
    st.rc_outcomes.(pid) <- Some outcome;
    match outcome with
    | Outcome.Commit d -> Trace.commit tr ~pid req d
    | Outcome.Abort w -> Trace.abort tr ~pid req w
  in
  for pid = 0 to n - 1 do
    (* The recovery entry point: re-enter the in-flight operation (a
       re-invocation, not a fresh one). [recover] returning [None] means
       the crash hit before the durable write-ahead phase or after the
       response escaped durable state — the operation stays pending. A
       crash *of the recovery itself* re-runs this closure; the
       algorithms' recovery procedures are idempotent. *)
    Sim.set_recovery sim pid (fun () ->
        match st.rc_inflight.(pid) with
        | None -> ()
        | Some req -> (
            Trace.recover tr ~pid req;
            match recover ~pid with
            | None -> ()
            | Some outcome -> record pid req outcome));
    Sim.spawn sim pid (fun () ->
        let req = Request.make pid (100 + pid) in
        Trace.invoke tr ~pid req;
        st.rc_inflight.(pid) <- Some req;
        record pid req (propose ~pid (Some (100 + pid))))
  done

let recoverable_check ~what ~n slot _sim =
  let st = get slot in
  let evs = Trace.events st.rc_tr in
  (* re-invocation-aware well-formedness: every Recover falls strictly
     inside its request's operation interval *)
  let ops =
    match Trace.operations evs with
    | ops -> ops
    | exception Invalid_argument msg -> violation "%s: malformed trace: %s" what msg
  in
  (* every value that escapes the instance, whether committed or carried
     out as an abort's switch value *)
  let escaped =
    List.filter_map
      (fun (o : _ Trace.operation) ->
        match o.Trace.outcome with
        | Trace.Committed { resp = Some d; _ } -> Some d
        | Trace.Aborted { switch = Some d; _ } -> Some d
        | _ -> None)
      ops
  in
  (match escaped with
  | [] -> ()
  | d :: rest ->
      if not (List.for_all (fun x -> x = d) rest) then
        violation "%s: agreement violated: decision values disagree" what);
  List.iter
    (fun d -> if d < 100 || d >= 100 + n then violation "%s: invalid decision %d" what d)
    escaped;
  (* a committed proposal must never be left marked in flight *)
  Array.iteri
    (fun pid -> function
      | Some _ when st.rc_inflight.(pid) <> None ->
          violation "%s: pid %d responded but still marked in flight" what pid
      | _ -> ())
    st.rc_outcomes

let recoverable_split =
  {
    name = "recoverable-split";
    describe = "recoverable SplitConsensus under crash-recovery: agreement + validity";
    default_n = 3;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        let algo (module P : Scs_prims.Prims_intf.S) =
          let module RS = Scs_consensus.Recoverable_split.Make (P) in
          let rs = RS.create ~name:"rsplit" ~n () in
          ((fun ~pid v -> RS.propose rs ~pid v), fun ~pid -> RS.recover rs ~pid)
        in
        {
          setup = recoverable_setup ~n ~prims:(prims_of backend) ~algo s;
          check = recoverable_check ~what:"recoverable-split" ~n s;
        });
  }

let recoverable_bakery_named name ~volatile_announce ~describe ~expect_failures =
  {
    name;
    describe;
    default_n = 3;
    expect_failures;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        let algo (module P : Scs_prims.Prims_intf.S) =
          let module RB = Scs_consensus.Recoverable_bakery.Make (P) in
          let rb = RB.create ~name:"rbakery" ~volatile_announce ~n () in
          ((fun ~pid v -> RB.propose rb ~pid v), fun ~pid -> RB.recover rb ~pid)
        in
        {
          setup = recoverable_setup ~n ~prims:(prims_of backend) ~algo s;
          check = recoverable_check ~what:name ~n s;
        });
  }

let recoverable_bakery =
  recoverable_bakery_named "recoverable-bakery" ~volatile_announce:false
    ~describe:"recoverable AbortableBakery under crash-recovery: agreement + validity"
    ~expect_failures:false

(* The instructive unsound variant: volatile announcement arrays. A
   crash wipes every in-flight (Ai) entry, after which two survivors can
   both pass their clean checks against an empty array and commit
   different values — finding F-5, pinned in test/test_recovery.ml. *)
let recoverable_bakery_volatile =
  recoverable_bakery_named "recoverable-bakery-volatile" ~volatile_announce:true
    ~describe:
      "bakery with volatile announcements (known failing under crashes, finding F-5)"
    ~expect_failures:true

(* ---- long-lived TAS --------------------------------------------------- *)

(* The paper's Section 6 long-lived TAS (strict per-round variant): each
   process runs enough test-and-set rounds that the global resettable-TAS
   history always exceeds 200 operations — exactly the runs the legacy
   62-op bitmask checker had to skip. The check verifies the whole
   history with the scalable checker AND cross-checks the compositional
   front-end: each round lives in its own one-shot instance, so splitting
   by round id is a sound per-object decomposition (every partition is
   checked against a fresh resettable-TAS spec; the split agrees with the
   monolithic verdict by the compositionality theorem). *)
let tas_long_lived =
  {
    name = "tas-long-lived";
    describe = "strict long-lived TAS, 200+ ops: scalable + per-round split lin-check";
    default_n = 3;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let iters = (200 + n - 1) / n in
        let s = slot () in
        let setup sim =
          let module P = (val prims_of backend sim) in
          let module LL = Scs_tas.Long_lived.Make (P) in
          let ll = LL.create ~strict:true ~name:"ll" ~rounds:((n * iters) + 1) () in
          let gen = Request.Gen.create () in
          let tr : (Objects.rtas_req, Objects.rtas_resp, unit) Trace.t =
            Trace.create ~clock:(fun () -> Sim.clock sim) ()
          in
          (* request id -> round, for the compositional split *)
          let round_of : (int, int) Hashtbl.t = Hashtbl.create 128 in
          s := Some (tr, round_of);
          for pid = 0 to n - 1 do
            Sim.spawn sim pid (fun () ->
                let h = LL.handle ll ~pid in
                for _ = 1 to iters do
                  let req = Request.Gen.fresh gen Objects.R_test_and_set in
                  Trace.invoke tr ~pid req;
                  let resp, _stage, round = LL.test_and_set_info h in
                  Hashtbl.replace round_of (Request.id req) round;
                  Trace.commit tr ~pid req
                    (match resp with
                    | Objects.Winner -> Objects.R_winner
                    | Objects.Loser -> Objects.R_loser);
                  if resp = Objects.Winner then begin
                    let rq = Request.Gen.fresh gen Objects.R_reset in
                    Trace.invoke tr ~pid rq;
                    Hashtbl.replace round_of (Request.id rq) round;
                    (* the round-count write happens inside [reset], before
                       the commit below — so every round-r operation is
                       invoked before reset r's commit and may linearize
                       ahead of it *)
                    LL.reset h;
                    Trace.commit tr ~pid rq Objects.R_ok
                  end
                done)
          done
        in
        let check _sim =
          let tr, round_of = get s in
          let ops = Trace.operations (Trace.events tr) in
          note_large (List.length ops);
          if not (Linearize.check_operations Objects.resettable_tas ops) then
            violation "long-lived TAS history (%d ops) not linearizable"
              (List.length ops);
          (* compositional cross-check: one partition per round. Sound only
             when every operation's round is known: a process crashed before
             [test_and_set_info] returned leaves a Pending op with no
             recorded round, and that op may still have taken effect — e.g.
             won its round's hardware TAS, making a committed Loser in that
             round globally linearizable. Misplacing it in a catch-all
             partition strands the Loser alone with a fresh spec, a false
             violation (found by this very fuzzer under uniform+crash). *)
          let round o =
            Hashtbl.find_opt round_of (Request.id o.Trace.op_req)
          in
          if List.for_all (fun o -> round o <> None) ops then
            let key o = Option.get (round o) in
            if
              not
                (Linearize.check_partitioned ~key
                   ~spec:(fun _ -> Objects.resettable_tas)
                   ops)
            then
              violation "per-round split of long-lived TAS history not linearizable"
        in
        { setup; check });
  }

(* ---- speculative queue ------------------------------------------------ *)

(* 22 ops per process puts even the default n = 3 history (66 ops) past
   the legacy 62-op cap — such runs used to be skipped and are now checked
   (and counted as checked-large). Checking cost is exponential in
   concurrency width (= n here, since the queue is a single object), not
   length, so the check carries a node budget: at sane n it never fires,
   and at adversarial width (n ≳ 10) the run degrades to an honest skip
   instead of hanging the batch. *)
let queue =
  let ops_per_proc = 22 in
  let search_budget = 200_000 in
  {
    name = "queue";
    describe = "speculative queue (lib/futures): generic linearizability";
    default_n = 3;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        let setup sim =
          let module P = (val prims_of backend sim) in
          let module SO = Scs_futures.Spec_object.Make (P) in
          let obj =
            SO.create ~transfer:Scs_futures.Spec_object.History ~name:"q" ~n
              ~max_requests:(8 * n * ops_per_proc) ~spec:Objects.queue
              ~state_to_requests:(fun q -> List.map (fun x -> Objects.Enqueue x) q)
              ()
          in
          let gen = Request.Gen.create () in
          let tr : (Objects.queue_req, Objects.queue_resp, unit) Trace.t =
            Trace.create ~clock:(fun () -> Sim.clock sim) ()
          in
          s := Some tr;
          for pid = 0 to n - 1 do
            Sim.spawn sim pid (fun () ->
                let h = SO.handle obj ~pid in
                for k = 1 to ops_per_proc do
                  let payload =
                    if k mod 2 = 1 then Objects.Enqueue ((100 * pid) + k)
                    else Objects.Dequeue
                  in
                  let req = Request.Gen.fresh gen payload in
                  Trace.invoke tr ~pid req;
                  let resp = SO.apply h req in
                  Trace.commit tr ~pid req resp
                done)
          done
        in
        let check _sim =
          let ops = Trace.operations (Trace.events (get s)) in
          let nops = List.length ops in
          match
            Linearize.check_operations ~budget:search_budget Objects.queue ops
          with
          | ok ->
              note_large nops;
              if not ok then violation "queue history not linearizable"
          | exception Linearize.Search_budget_exceeded b ->
              raise
                (Fuzz.Skip
                   (Printf.sprintf
                      "lin-check search budget (%d nodes) exceeded on %d-op history" b
                      nops))
        in
        { setup; check });
  }

let all =
  [
    f1;
    f2;
    tas_composed;
    tas_strict;
    tas_solo_fast;
    tas_long_lived;
    splitter;
    consensus_chain;
    recoverable_split;
    recoverable_bakery;
    recoverable_bakery_volatile;
    queue;
  ]
  @ Shard_run.all

let find name = List.find_opt (fun w -> w.name = name) all
let names () = List.map (fun w -> w.name) all

(* Workload names qualified with a non-default backend — the [.scsrepro]
   encoding ("splitter@sim-sc:1"), so repro artifacts recorded on the SC
   backend replay on it without any format change. *)
let qualified_name w backend =
  match backend with
  | Scs_prims.Backend.Sim_lin -> w.name
  | b -> w.name ^ "@" ^ Scs_prims.Backend.name b

let find_qualified s =
  match String.index_opt s '@' with
  | None -> Option.map (fun w -> (w, Scs_prims.Backend.Sim_lin)) (find s)
  | Some i -> (
      let base = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match (find base, Scs_prims.Backend.of_string rest) with
      | Some w, Ok backend -> Some (w, backend)
      | _ -> None)

let fuzz ?backend ?policies ?runs ?time_budget ?max_violations ?seed ?max_steps ?gen_domains
    ?obs w ~n =
  let workload =
    qualified_name w (Option.value ~default:Scs_prims.Backend.default backend)
  in
  Fuzz.run ?policies ?runs ?time_budget ?max_violations ?seed ?max_steps
    ?gen_domains ?obs ~workload ~n
    ~instantiate:(fun () ->
      let { setup; check } = w.instantiate ?backend ~n () in
      (setup, check))
    ()

type replay_outcome =
  | Violates of string  (** the recorded violation reproduces *)
  | Passes  (** replays cleanly: the check holds on this schedule *)
  | Skipped of string
  | Drifted of int  (** schedule does not replay; offending pid *)

let replay ?backend w ~n ~schedule ~crashes =
  let { setup; check } = w.instantiate ?backend ~n () in
  match check (Fuzz.replay ~n ~setup ~schedule ~crashes ()) with
  | () -> Passes
  | exception Fuzz.Violation msg -> Violates msg
  | exception Fuzz.Skip msg -> Skipped msg
  | exception Policy.Replay_drift p -> Drifted p

let shrink ?backend ?max_rounds ?max_steps w ~n ~schedule ~crashes =
  let { setup; check } = w.instantiate ?backend ~n () in
  Shrink.minimize ?max_rounds ?max_steps ~n ~setup ~check ~schedule ~crashes ()
