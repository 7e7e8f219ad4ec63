open Scs_spec
open Scs_composable
open Scs_consensus
module Vec = Scs_util.Vec

type 'i abstract_outcome =
  | Committed
  | Aborted_with of 'i History.t

module Make (P : Scs_prims.Prims_intf.S) = struct
  module Snap = Snapshot.Make (P)

  type 'i t = {
    n : int;
    max_requests : int;
    cons : slot:int -> 'i Request.t Consensus_intf.t;
    aborted : bool P.reg;
    reqs : 'i Request.t list Snap.t;
    c : int P.reg array;  (** C_i: slots process i has seen decided *)
  }

  type 'i handle = {
    t : 'i t;
    pid : int;
    init_hist : 'i Request.t array;
    log : 'i Request.t Vec.t;  (** local log, oldest first (deduplicated) *)
    mutable next_slot : int;  (** slots processed; ≥ |log| (duplicates collapse) *)
    mutable announced : 'i Request.t list;  (** newest first *)
    mutable dead : 'i History.t option;  (** abort history once aborted *)
  }

  let create ~name ~n ~max_requests ~cons () =
    {
      n;
      max_requests;
      cons;
      aborted = P.reg ~name:(name ^ ".Aborted") false;
      reqs = Snap.create ~name:(name ^ ".Reqs") ~n ~init:[];
      c = Array.init n (fun i -> P.reg ~name:(name ^ ".C[" ^ string_of_int i ^ "]") 0);
    }

  let handle t ~pid ~init =
    {
      t;
      pid;
      init_hist = Array.of_list init;
      log = Vec.create ();
      next_slot = 0;
      announced = [];
      dead = None;
    }

  let performed h = Vec.to_list h.log
  let log_length h = Vec.length h.log
  let log_get h i = Vec.get h.log i

  let performed_mem h req =
    let id = Request.id req in
    Vec.exists (fun r -> Request.id r = id) h.log

  let append_decided h req = if not (performed_mem h req) then Vec.push h.log req

  (* The paper's counter: the number of slots known decided by anyone
     who might have returned a commit. Read at recovery, and by [invoke]
     to bound its catch-up. *)
  let read_count h = Array.fold_left (fun acc r -> max acc (P.read r)) 0 h.t.c

  (* Recovery (Section 4.2): set the flag, read the count, rebuild the
     decided prefix by probing every slot below it. *)
  let recover_and_abort h own_req =
    P.write h.t.aborted true;
    let count = read_count h in
    let hist = ref [] in
    for k = count - 1 downto 0 do
      match Consensus_intf.probe (h.t.cons ~slot:k) ~pid:h.pid with
      | Some req -> hist := req :: !hist
      | None -> ()
    done;
    (* deduplicate positionally, keeping first occurrences *)
    let seen = Hashtbl.create (max 16 count) in
    let dedup =
      List.fold_left
        (fun acc r ->
          let id = Request.id r in
          if Hashtbl.mem seen id then acc
          else begin
            Hashtbl.add seen id ();
            r :: acc
          end)
        [] !hist
      |> List.rev
    in
    let final = if Hashtbl.mem seen (Request.id own_req) then dedup else dedup @ [ own_req ] in
    h.dead <- Some final;
    Aborted_with final

  (* Helping choice for slot [k]: prefer the round-robin process's oldest
     pending announcement, then our own request, then any pending
     announcement. *)
  let choose_proposal h ~slot own_req =
    let views = Snap.scan h.t.reqs ~pid:h.pid in
    (* announcements are newest first: the oldest pending one is the last
       match, found without building a reversed or filtered copy *)
    let oldest_pending j =
      List.fold_left (fun acc r -> if performed_mem h r then acc else Some r) None views.(j)
    in
    match oldest_pending (slot mod h.t.n) with
    | Some r -> r
    | None ->
        if not (performed_mem h own_req) then own_req
        else begin
          let rec first_pending j =
            if j >= h.t.n then own_req
            else begin
              match oldest_pending j with Some r -> r | None -> first_pending (j + 1)
            end
          in
          first_pending 0
        end

  (* Commit discipline: the count was published when the deciding slot was
     processed; re-read the flag last, so an aborter that set it is
     guaranteed (flag principle) to see our count when it recovers. *)
  let finish_commit h req =
    if P.read h.t.aborted then recover_and_abort h req else Committed

  let invoke h req =
    match h.dead with
    | Some hist -> Aborted_with hist
    | None ->
        (* Alone, nobody reads our announcement and nobody else's request
           is pending: every earlier invoke on the handle returned, so it
           committed (its request is in the log) or aborted (the handle
           is dead), and the helping choice could only return [req]. The
           announcement and the choice are skipped, and the count is our
           own. *)
        let alone = h.t.n = 1 in
        if not alone then begin
          h.announced <- req :: h.announced;
          Snap.update h.t.reqs ~pid:h.pid h.announced
        end;
        (* Catch-up bound: every slot below the count is decided (C_j is
           written only after slot k's decision is appended), so
           consensus returns that decision (or aborts) whatever we
           propose, and the helping choice can be skipped. *)
        let count = if alone then 0 else read_count h in
        let rec loop () =
          if P.read h.t.aborted then recover_and_abort h req
          else begin
            let k = h.next_slot in
            if k >= h.t.max_requests then
              failwith "Universal.invoke: slot capacity exceeded"
            else begin
              let old =
                if k < Array.length h.init_hist && not (performed_mem h h.init_hist.(k)) then
                  Some h.init_hist.(k)
                else None
              in
              let proposal = if alone || k < count then req else choose_proposal h ~slot:k req in
              match (h.t.cons ~slot:k).Consensus_intf.run ~pid:h.pid ~old proposal with
              | Outcome.Abort _ -> recover_and_abort h req
              | Outcome.Commit None ->
                  (* Unreachable: the wrapper's second phase proposes a
                     real value and the stages never adopt ⊥. Failing loud
                     beats looping on the slot. *)
                  failwith "Universal.invoke: consensus slot decided ⊥"
              | Outcome.Commit (Some decided) ->
                  h.next_slot <- k + 1;
                  let own = Request.id decided = Request.id req in
                  (* [req] is not in the log yet (the test before [loop]),
                     so its own decision is appended without a scan *)
                  if own then Vec.push h.log decided else append_decided h decided;
                  P.write h.t.c.(h.pid) h.next_slot;
                  if own then finish_commit h req else loop ()
            end
          end
        in
        (* Decided during init replay or an earlier helping pass. Tested
           once: later the request can become performed only as a slot's
           own decision, which the id test in [loop] catches. *)
        if performed_mem h req then finish_commit h req else loop ()
end
