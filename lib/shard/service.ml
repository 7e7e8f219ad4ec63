open Scs_spec

module Make (P : Scs_prims.Prims_intf.S) = struct
  module R = Router.Make (P)
  module Uc = Scs_universal.Uc_object.Make (P)
  module Sc = Scs_consensus.Split_consensus.Make (P)
  module Ab = Scs_consensus.Abortable_bakery.Make (P)
  module Cc = Scs_consensus.Cas_consensus.Make (P)

  let spf = Printf.sprintf
  let idx i = "[" ^ string_of_int i ^ "]"

  let default_stages ~n =
    [
      (fun ~name ~slot -> Sc.instance (Sc.create ~name:(name ^ ".split" ^ idx slot) ()));
      (fun ~name ~slot -> Ab.instance (Ab.create ~name:(name ^ ".bakery" ^ idx slot) ~n ()));
      (fun ~name ~slot -> Cc.instance (Cc.create ~name:(name ^ ".cas" ^ idx slot) ()));
    ]

  type shard_obj = (Kv.state, Kv.req, Kv.resp) Uc.Typed.obj

  type t = { n : int; router : R.t; objs : shard_obj array }

  let create ?stages ~name ~n ~shards ~buckets ~capacity () =
    let stages = match stages with Some s -> s | None -> default_stages ~n in
    let spec = Kv.spec ~buckets in
    let objs =
      Array.init shards (fun s ->
          Uc.Typed.create spec
            (Uc.create ~name:(name ^ ".shard" ^ idx s) ~n ~max_requests:capacity ~stages ()))
    in
    { n; router = R.create ~name ~shards ~buckets (); objs }

  let router t = t.router
  let shards t = Array.length t.objs
  let buckets t = R.buckets t.router

  type h = {
    t : t;
    pid : int;
    hs : (Kv.state, Kv.req, Kv.resp) Uc.Typed.handle array;
    mutable ctr : int;
    mutable inflight : (int * Kv.req Request.t) option;
  }

  let handle t ~pid =
    {
      t;
      pid;
      hs = Array.map (fun o -> Uc.Typed.handle o ~pid) t.objs;
      ctr = 0;
      inflight = None;
    }

  let fresh_req h payload =
    h.ctr <- h.ctr + 1;
    Request.make ((h.ctr * h.t.n) + h.pid) payload

  let apply_on h ~shard req = Uc.Typed.apply h.hs.(shard) req

  type outcome = Done of Kv.resp | Gave_up

  let default_retries = 64

  let apply ?(retries = default_retries) h payload =
    let key =
      match Kv.key_of_req payload with
      | Some key -> key
      | None -> invalid_arg "Service.apply: administrative request; use apply_on"
    in
    (* The attempt record is cleared here — at the start of the next
       logical operation — and NOT when an attempt returns: a crash
       between the shard committing and the caller recording the
       response must still find the attempt, or recovery would re-run a
       possibly-committed [Put] under a fresh id (a double apply,
       observably non-linearizable; docs/sharding.md works the
       counterexample). *)
    h.inflight <- None;
    let rec go attempts =
      if attempts >= retries then Gave_up
      else
        let r = R.route h.t.router ~key in
        if r.R.frozen then begin
          P.pause ();
          go (attempts + 1)
        end
        else begin
          let req = fresh_req h payload in
          (* The attempt record must be in place before the shard can
             commit the request: a crash inside [apply_on] recovers by
             re-proposing exactly this id on exactly this shard. *)
          h.inflight <- Some (r.R.owner, req);
          let resp = apply_on h ~shard:r.R.owner req in
          match resp with Kv.Refused -> go (attempts + 1) | resp -> Done resp
        end
    in
    go 0

  let inflight h = h.inflight

  let recover ?retries h =
    match h.inflight with
    | None -> None
    | Some (shard, req) -> (
        (* Same id, same shard: deduplication makes this the crashed
           attempt's committed response if it had one, and a first
           commit otherwise — never a second effect. The record stays
           in place so a crash of the recovery itself re-enters here and
           gets the same answer (idempotent); the next [apply] clears
           it. *)
        let resp = apply_on h ~shard req in
        match resp with
        | Kv.Refused -> Some (apply ?retries h (Request.payload req))
        | resp -> Some (Done resp))

  module Migration = struct
    type svc = t

    type phase =
      | Idle
      | Freezing of { bucket : int; dst : int }
      | Installing of { bucket : int; dst : int; pairs : (int * int) list }
      | Rerouting of { bucket : int; dst : int }

    type t = { svc : svc; phase : phase P.reg }

    let create ~name svc = { svc; phase = P.reg ~name:(name ^ ".phase") Idle }
    let phase t = P.read t.phase

    (* Steps shared by the initial run and recovery; each starts from a
       durably recorded phase and finishes by recording the next. *)

    let do_freeze t ~h ~bucket ~dst =
      let rt = router t.svc in
      let src = (R.route_bucket rt ~bucket).R.owner in
      ignore (R.freeze rt ~bucket);
      let pairs =
        match apply_on h ~shard:src (fresh_req h (Kv.Freeze bucket)) with
        | Kv.Sealed pairs -> pairs
        | r -> failwith ("Migration: freeze answered " ^ Kv.show_resp r)
      in
      P.write t.phase (Installing { bucket; dst; pairs });
      pairs

    let do_install t ~h ~bucket ~dst ~pairs =
      (match apply_on h ~shard:dst (fresh_req h (Kv.Install (bucket, pairs))) with
      | Kv.Ack -> ()
      | r -> failwith ("Migration: install answered " ^ Kv.show_resp r));
      P.write t.phase (Rerouting { bucket; dst })

    let do_reroute t ~bucket ~dst =
      ignore (R.assign (router t.svc) ~bucket ~shard:dst);
      P.write t.phase Idle

    let migrate t ~h ~bucket ~dst =
      (match P.read t.phase with
      | Idle -> ()
      | _ -> invalid_arg "Migration.migrate: migration already in flight");
      if dst < 0 || dst >= shards t.svc then invalid_arg "Migration.migrate: dst out of range";
      if bucket < 0 || bucket >= buckets t.svc then
        invalid_arg "Migration.migrate: bucket out of range";
      P.write t.phase (Freezing { bucket; dst });
      let pairs = do_freeze t ~h ~bucket ~dst in
      do_install t ~h ~bucket ~dst ~pairs;
      do_reroute t ~bucket ~dst

    let recover t ~h =
      match P.read t.phase with
      | Idle -> ()
      | Freezing { bucket; dst } ->
          let pairs = do_freeze t ~h ~bucket ~dst in
          do_install t ~h ~bucket ~dst ~pairs;
          do_reroute t ~bucket ~dst
      | Installing { bucket; dst; pairs } ->
          do_install t ~h ~bucket ~dst ~pairs;
          do_reroute t ~bucket ~dst
      | Rerouting { bucket; dst } -> do_reroute t ~bucket ~dst
  end

  module Batcher = struct
    type svc = t

    (* A process's mailbox: the combiner writes [Some (id, resp)] for
       request [id]. Submitters match on their current request id, so a
       mailbox is never reset. *)
    type box = (int * Kv.resp) option P.reg

    type cell = { c_req : Kv.req Request.t; c_bucket : int; c_box : box }

    type t = {
      svc : svc;
      name : string;
      queues : cell list P.cas_obj array;  (** Treiber stacks, one per shard *)
      locks : P.tas_obj array;  (** combiner locks *)
      boxes : box option array;
          (** per pid, volatile (DRAM) mailboxes; slot [p] is created
              and read only by process [p] *)
      n_batches : int Atomic.t;
      served : int Atomic.t array;  (** per shard: cells answered with a result *)
      n_refused : int Atomic.t;  (** cells answered [Refused] (retried) *)
    }

    let create ~name svc =
      {
        svc;
        name;
        queues =
          Array.init (shards svc) (fun s -> P.cas_obj ~name:(spf "%s.q[%d]" name s) []);
        locks = Array.init (shards svc) (fun s -> P.tas_obj ~name:(spf "%s.lock[%d]" name s) ());
        boxes = Array.make svc.n None;
        n_batches = Atomic.make 0;
        served = Array.init (shards svc) (fun _ -> Atomic.make 0);
        n_refused = Atomic.make 0;
      }

    let batches t = Atomic.get t.n_batches
    let served_ops t ~shard = Atomic.get t.served.(shard)
    let refused_ops t = Atomic.get t.n_refused

    let batched_ops t =
      Array.fold_left (fun acc c -> acc + Atomic.get c) (refused_ops t) t.served

    (* Created by its owner on its first submit, so that a mailbox
       belongs to the process (and, natively, the domain) that waits on
       it. *)
    let box t ~pid =
      match t.boxes.(pid) with
      | Some b -> b
      | None ->
          let b = P.volatile_reg ~name:(t.name ^ ".cell" ^ idx pid) None in
          t.boxes.(pid) <- Some b;
          b

    let rec push q cell =
      let old = P.cas_read q in
      if not (P.compare_and_swap q ~expect:old ~update:(cell :: old)) then begin
        P.pause ();
        push q cell
      end

    let rec grab q =
      match P.cas_read q with
      | [] -> []
      | old ->
          if P.compare_and_swap q ~expect:old ~update:[] then List.rev old
          else begin
            P.pause ();
            grab q
          end

    (* Each cell's route is revalidated at apply time: the submitter
       chose the shard before queueing, and a migration may have frozen
       or moved the bucket since. Returns the cell's mailbox and its
       answer. *)
    let serve t ~h shard c =
      let r = R.route_bucket (router t.svc) ~bucket:c.c_bucket in
      let resp =
        if r.R.frozen || r.R.owner <> shard then Kv.Refused else apply_on h ~shard c.c_req
      in
      Atomic.incr (match resp with Kv.Refused -> t.n_refused | _ -> t.served.(shard));
      (c.c_box, Some (Request.id c.c_req, resp))

    (* Drain one shard's queue through the combiner's own handle,
       re-grabbing after each batch: cells pushed while the combiner was
       busy are served before it releases the lock. Returns the answers;
       the caller writes them once it has released the lock, so no
       process can push a second cell during a drain and a drain makes
       at most [n] non-empty grabs. The pass limit states that bound. *)
    let drain t ~h shard =
      let rec pass k answers =
        if k = t.svc.n then answers
        else
          match grab t.queues.(shard) with
          | [] -> answers
          | batch ->
              Atomic.incr t.n_batches;
              pass (k + 1) (List.rev_append (List.map (serve t ~h shard) batch) answers)
      in
      pass 0 []

    let apply ?(retries = default_retries) t ~h payload =
      let key =
        match Kv.key_of_req payload with
        | Some key -> key
        | None -> invalid_arg "Batcher.apply: administrative request; use apply_on"
      in
      let bucket = Kv.bucket_of_key ~buckets:(buckets t.svc) key in
      let box = box t ~pid:h.pid in
      let rec go attempts =
        if attempts >= retries then Gave_up
        else
          let r = R.route_bucket (router t.svc) ~bucket in
          if r.R.frozen then begin
            P.pause ();
            go (attempts + 1)
          end
          else begin
            let shard = r.R.owner in
            let req = fresh_req h payload in
            push t.queues.(shard) { c_req = req; c_bucket = bucket; c_box = box };
            let id = Request.id req and lock = t.locks.(shard) in
            (* test-and-test-and-set: only a lock that reads free is
               worth the RMW. The answers go out after the release, so
               the combiner is back at the queue before the processes
               it served and usually keeps the role (docs/sharding.md
               §4). *)
            let rec wait () =
              match P.read box with
              | Some (id', resp) when id' = id -> resp
              | _ ->
                  if (not (P.tas_read lock)) && P.test_and_set lock then begin
                    let answers = drain t ~h shard in
                    P.tas_reset lock;
                    List.iter (fun (box, answer) -> P.write box answer) answers
                  end
                  else P.pause ();
                  wait ()
            in
            match wait () with Kv.Refused -> go (attempts + 1) | resp -> Done resp
          end
      in
      go 0
  end
end
