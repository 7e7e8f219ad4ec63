open Scs_spec
open Scs_consensus

type transfer = History | State_only
type stage = Fast | Fallback

module Make (P : Scs_prims.Prims_intf.S) = struct
  module U = Scs_universal.Universal.Make (P)
  module Sp = Splitter.Make (P)

  (* The fast module's single-register state: the object value plus the
     applied requests with their responses, newest first. Keeping both in
     one register makes every publication atomic. Only a splitter owner
     ever writes the register (non-owners abort), and the splitter is
     reset only by an owner after its write, so the write chain never
     forks: it is the fast path's linearisation. *)
  type ('q, 'i, 'r) fast_state = {
    value : 'q;
    applied : ('i Request.t * 'r) list;
  }

  type ('q, 'i, 'r) t = {
    spec : ('q, 'i, 'r) Spec.t;
    transfer : transfer;
    state_to_requests : 'q -> 'i list;
    state : ('q, 'i, 'r) fast_state P.reg;
    splitter : Sp.t;
    aborted : bool P.reg;
    uc : 'i U.t;
    gen : Request.Gen.t;  (** fresh ids for State_only resynthesis *)
  }

  type ('q, 'i, 'r) handle = {
    t : ('q, 'i, 'r) t;
    pid : int;
    mutable uc_handle : 'i U.handle option;  (** Some once switched *)
    mutable switched_len : int option;
  }

  let create ?(transfer = History) ~name ~n ~max_requests ~spec ~state_to_requests () =
    let make_cons ~slot =
      let module CC = Cas_consensus.Make (P) in
      CC.instance (CC.create ~name:(Printf.sprintf "%s.cons%d" name slot) ())
    in
    {
      spec;
      transfer;
      state_to_requests;
      state = P.reg ~name:(name ^ ".state") { value = spec.Spec.init; applied = [] };
      splitter = Sp.create ~name:(name ^ ".split") ();
      aborted = P.reg ~name:(name ^ ".aborted") false;
      uc =
        (let cons = Array.init max_requests (fun slot -> make_cons ~slot) in
         U.create ~name:(name ^ ".uc") ~n ~max_requests ~cons:(fun ~slot -> cons.(slot)) ());
      gen = Request.Gen.create ();
    }

  let handle t ~pid = { t; pid; uc_handle = None; switched_len = None }

  (* The history an abort transfers: the applied requests in application
     order, or (State_only) a fresh resynthesis of the value that forgets
     which requests produced it. *)
  let switch_history t (st : _ fast_state) =
    match t.transfer with
    | History -> List.rev_map fst st.applied
    | State_only ->
        List.map (fun payload -> Request.Gen.fresh t.gen payload)
          (t.state_to_requests st.value)

  let to_fallback h st =
    let hist = switch_history h.t st in
    h.switched_len <- Some (List.length hist);
    let uh = U.handle h.t.uc ~pid:h.pid ~init:hist in
    h.uc_handle <- Some uh;
    uh

  let response_from_history h req hist =
    match History.beta_at h.t.spec hist (Request.id req) with
    | Some r -> r
    | None -> failwith "Spec_object: committed history misses the request"

  let fallback_apply h uh req =
    match U.invoke uh req with
    | Scs_universal.Universal.Committed -> response_from_history h req (U.performed uh)
    | Scs_universal.Universal.Aborted_with _ ->
        (* single CAS stage: unreachable *)
        failwith "Spec_object: wait-free stage aborted"

  (* One fast-path attempt; [Error st] means contention was detected and
     [st] is the state to transfer.

     Flag discipline (as in A1 line 15 and the UC's commit path): the
     owner re-reads [aborted] after publishing its write; a leaver writes
     [aborted] before reading the state. If the owner read [false], its
     write precedes every leaver's state read (so every transferred
     history contains its request); if it read [true], it downgrades —
     the operation reaches the fallback through the owner's own init
     history and is answered there. *)
  let fast_attempt t ~pid req =
    if P.read t.aborted then Error (P.read t.state)
    else if Sp.split t.splitter ~pid <> Splitter.Stop then begin
      P.write t.aborted true;
      Error (P.read t.state)
    end
    else begin
      let st = P.read t.state in
      (* a request that already took effect replays its recorded response *)
      match
        List.find_opt (fun (r, _) -> Request.id r = Request.id req) st.applied
      with
      | Some (_, resp) ->
          Sp.reset t.splitter;
          Ok resp
      | None ->
          let value', resp = t.spec.Spec.apply st.value (Request.payload req) in
          P.write t.state { value = value'; applied = (req, resp) :: st.applied };
          if P.read t.aborted then Error (P.read t.state)
          else begin
            Sp.reset t.splitter;
            Ok resp
          end
    end

  let apply h req =
    match h.uc_handle with
    | Some uh -> fallback_apply h uh req
    | None -> (
        match fast_attempt h.t ~pid:h.pid req with
        | Ok resp -> resp
        | Error st ->
            let uh = to_fallback h st in
            fallback_apply h uh req)

  let stage_of h = match h.uc_handle with Some _ -> Fallback | None -> Fast
  let switch_len h = h.switched_len

  (* entry aborted-read (1), splitter acquire (4), state read (1), state
     write (1), aborted re-read (1), splitter reset (2) *)
  let fast_solo_steps () = 10
end
