open Scs_spec
module CI = Scs_consensus.Consensus_intf

module Make (P : Scs_prims.Prims_intf.S) = struct
  module U = Universal.Make (P)

  type 'i factory = name:string -> slot:int -> 'i Request.t CI.t

  (* Build-once cells: the first lookup builds [build x] and publishes
     it by a compare-and-set on a host-level cell, so processes racing
     to build it agree on one copy and the loser drops its own
     (DESIGN.md §4). *)
  let once cell build x =
    match Atomic.get cell with
    | Some v -> v
    | None ->
        ignore (Atomic.compare_and_set cell None (Some (build x)));
        Option.get (Atomic.get cell)

  (* A stage's slots come in chunks of 8, 16, 32 and then 64 slots each:
     chunk c <= 3 holds slots [8(2^c - 1), 8(2^(c+1) - 1)), chunk c >= 3
     slots [56 + 64(c - 3), 56 + 64(c - 2)), cut at [max_requests].
     Chunk 0 is built with the stage, every later chunk on the first
     lookup into it. *)
  let chunk_start c = if c <= 3 then 8 * ((1 lsl c) - 1) else 56 + (64 * (c - 3))

  let chunk_of slot =
    if slot < 8 then 0 else if slot < 24 then 1 else if slot < 56 then 2 else 3 + ((slot - 56) / 64)

  type 'i chunks = 'i Request.t CI.t array option Atomic.t array

  (* Stage 0 is built by [create], stage i >= 1 on the first switch
     into it. *)
  type 'i t = {
    name : string;
    n : int;
    max_requests : int;
    stages : 'i factory array;
    ucs : ('i U.t * 'i chunks) option Atomic.t array;
  }

  let build t i =
    let uname = t.name ^ ".stage" ^ string_of_int i in
    let prefix = uname ^ ".cons" in
    let make = t.stages.(i) in
    let chunks =
      Array.init (chunk_of (max 0 (t.max_requests - 1)) + 1) (fun _ -> Atomic.make None)
    in
    let build_chunk c =
      let lo = chunk_start c in
      Array.init
        (min t.max_requests (chunk_start (c + 1)) - lo)
        (fun k ->
          let slot = lo + k in
          make ~name:(prefix ^ string_of_int slot) ~slot)
    in
    let chunk c = once chunks.(c) build_chunk c in
    let cons ~slot =
      let c = chunk_of slot in
      (chunk c).(slot - chunk_start c)
    in
    let u = U.create ~name:uname ~n:t.n ~max_requests:t.max_requests ~cons () in
    ignore (chunk 0);
    (u, chunks)

  let stage t i = fst (once t.ucs.(i) (build t) i)

  let create ~name ~n ~max_requests ~stages () =
    let stages = Array.of_list stages in
    if Array.length stages = 0 then invalid_arg "Uc_object.create: no stages";
    let t =
      { name; n; max_requests; stages; ucs = Array.map (fun _ -> Atomic.make None) stages }
    in
    ignore (stage t 0);
    t

  type 'i phandle = {
    t : 'i t;
    pid : int;
    mutable stage : int;
    mutable h : 'i U.handle;
    mutable switches : int list;  (** lengths of transferred histories *)
  }

  let phandle t ~pid = { t; pid; stage = 0; h = U.handle (stage t 0) ~pid ~init:[]; switches = [] }

  (* Run [req] through the chain until a stage commits it: it is then
     in [ph.h]'s log. *)
  let rec commit ph req =
    match U.invoke ph.h req with
    | Universal.Committed -> ()
    | Universal.Aborted_with hist ->
        if ph.stage + 1 >= Array.length ph.t.stages then
          failwith "Uc_object.invoke: final stage aborted"
        else begin
          ph.switches <- List.length hist :: ph.switches;
          ph.stage <- ph.stage + 1;
          ph.h <- U.handle (stage ph.t ph.stage) ~pid:ph.pid ~init:hist;
          commit ph req
        end

  let invoke ph req =
    commit ph req;
    U.performed ph.h

  let stage_of ph = ph.stage
  let switch_lengths ph = List.rev ph.switches

  module Typed = struct
    type ('q, 'i, 'r) obj = { spec : ('q, 'i, 'r) Spec.t; chain : 'i t }

    let create spec chain = { spec; chain }

    (* The response cache: [state] is the spec state after the first
       [applied] entries of stage [stage]'s log (the cursor), and [last] the
       id and response of the request [apply] returned last (ids are
       unique in a log: the construction deduplicates decisions).
       DESIGN.md §4 argues why the cache is sound. *)
    type ('q, 'i, 'r) handle = {
      spec : ('q, 'i, 'r) Spec.t;
      ph : 'i phandle;
      mutable stage : int;
      mutable state : 'q;
      mutable applied : int;
      mutable last : (int * 'r) option;
    }

    let handle (obj : (_, _, _) obj) ~pid =
      {
        spec = obj.spec;
        ph = phandle obj.chain ~pid;
        stage = 0;
        state = obj.spec.Spec.init;
        applied = 0;
        last = None;
      }

    let phandle h = h.ph

    (* The response of [id] in the log of [uh], by replaying the log's
       prefix from the spec's initial state: the path of a request
       committed before the last answer. *)
    let replay spec uh id =
      let len = U.log_length uh in
      let rec go q i =
        if i >= len then None
        else begin
          let r = U.log_get uh i in
          let q, resp = spec.Spec.apply q (Request.payload r) in
          if Request.id r = id then Some resp else go q (i + 1)
        end
      in
      go spec.Spec.init 0

    let apply h req =
      commit h.ph req;
      if h.ph.stage <> h.stage then begin
        (* a new stage's log starts from the transferred history: the
           one rebuild a switch costs *)
        h.stage <- h.ph.stage;
        h.state <- h.spec.Spec.init;
        h.applied <- 0;
        h.last <- None
      end;
      let uh = h.ph.h and id = Request.id req in
      for i = h.applied to U.log_length uh - 1 do
        let r = U.log_get uh i in
        let q, resp = h.spec.Spec.apply h.state (Request.payload r) in
        h.state <- q;
        h.applied <- i + 1;
        if Request.id r = id then h.last <- Some (id, resp)
      done;
      match h.last with
      | Some (id', r) when id' = id -> r
      | _ -> (
          match replay h.spec uh id with
          | Some r ->
              h.last <- Some (id, r);
              r
          | None -> failwith "Uc_object.Typed.apply: committed history misses the request")
  end
end
