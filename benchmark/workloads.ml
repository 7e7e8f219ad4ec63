(* The four workloads, built directly from the library's public
   functors. Capacities match the load harness defaults so the numbers
   compare with BENCH_6 and BENCH_10. *)

open Scs_util
open Scs_spec
open Scs_composable
module CI = Scs_consensus.Consensus_intf
module Kv = Scs_shard.Kv

type kind =
  | Uc_solo
  | Kv of { shards : int; buckets : int; migrate_every : int }
  | Chain_d2

type cfg = {
  name : string;
  kind : kind;
  domains : int;
  keys : int;
  read_ratio : float;
  theta : float option;  (** zipf skew; [None] = uniform *)
  capacity : int;  (** slots per UC (per shard), or chain instances per key *)
}

let all =
  [
    (* Arena rebuild and UC bookkeeping on the solo split path; no batcher or router. *)
    {
      name = "uc-solo";
      kind = Uc_solo;
      domains = 1;
      keys = 16;
      read_ratio = 0.5;
      theta = Some 0.99;
      capacity = 512;
    };
    (* One shard behind one combiner: per-op history replay, stage switches, transfer. *)
    {
      name = "kv-s1";
      kind = Kv { shards = 1; buckets = 64; migrate_every = 0 };
      domains = 2;
      keys = 256;
      read_ratio = 0.0;
      theta = None;
      capacity = 512;
    };
    (* Reads beside writes over 4 shards with live bucket migration and router waits. *)
    {
      name = "kv-s4-mig";
      kind = Kv { shards = 4; buckets = 64; migrate_every = 256 };
      domains = 2;
      keys = 1024;
      read_ratio = 0.5;
      theta = Some 0.99;
      capacity = 512;
    };
    (* Bare consensus chain under 2-domain contention: the control UC and
       shard changes must not move. *)
    {
      name = "chain-d2";
      kind = Chain_d2;
      domains = 2;
      keys = 16;
      read_ratio = 0.0;
      theta = Some 0.99;
      capacity = 1024;
    };
  ]

let find name = List.find_opt (fun c -> c.name = name) all

let cfg_json c =
  let kind =
    match c.kind with
    | Uc_solo -> [ ("kind", Json.String "uc") ]
    | Kv { shards; buckets; migrate_every } ->
        [
          ("kind", Json.String "service");
          ("shards", Json.Int shards);
          ("buckets", Json.Int buckets);
          ("migrate_every", Json.Int migrate_every);
        ]
    | Chain_d2 -> [ ("kind", Json.String "chain") ]
  in
  Json.Obj
    ([ ("name", Json.String c.name) ]
    @ kind
    @ [
        ("domains", Json.Int c.domains);
        ("keys", Json.Int c.keys);
        ("read_ratio", Json.Float c.read_ratio);
        ( "key_dist",
          Json.String
            (match c.theta with None -> "uniform" | Some t -> Printf.sprintf "zipf%g" t) );
        ("capacity", Json.Int c.capacity);
        ("stages", Json.String "split>bakery>cas");
      ])

(* One client op. The engine fills [read]/[key]/[arg]; [apply] fills
   [resp] (a read's value, -1 for an acknowledged write, the decided
   value on the chain), [slot] (the chain instance) and [recycle]. *)
type op = {
  mutable read : bool;
  mutable key : int;
  mutable arg : int;
  mutable resp : int;
  mutable slot : int;
  mutable recycle : bool;
}

let new_op () = { read = false; key = 0; arg = 0; resp = 0; slot = 0; recycle = false }

(* The benchmark's own seeded generator: the library only ever sees the
   generated ops. Zipf keys draw from the exact CDF (key 0 hottest). *)
type gen = { ratio : float; nkeys : int; cdf : float array option }

let gen c =
  let cdf =
    Option.map
      (fun theta ->
        let w = Array.init c.keys (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
        let total = Array.fold_left ( +. ) 0.0 w in
        let acc = ref 0.0 in
        Array.map
          (fun x ->
            acc := !acc +. (x /. total);
            !acc)
          w)
      c.theta
  in
  { ratio = c.read_ratio; nkeys = c.keys; cdf }

let next g rng op =
  op.read <- Rng.float rng < g.ratio;
  (op.key <-
     (match g.cdf with
     | None -> Rng.int rng g.nkeys
     | Some cdf ->
         let u = Rng.float rng in
         let lo = ref 0 and hi = ref (Array.length cdf - 1) in
         while !lo < !hi do
           let mid = (!lo + !hi) / 2 in
           if cdf.(mid) < u then lo := mid + 1 else hi := mid
         done;
         !lo));
  op.arg <- Rng.int rng 1024

(* Typed outcomes of a failed op. *)
exception Capacity_exhausted of string
exception Unexpected of string

let capacity_message = "Universal.invoke: slot capacity exceeded"

type failure = Capacity of string | Other of string

let classify = function
  | Capacity_exhausted m -> Capacity m
  | Failure m when m = capacity_message -> Capacity m
  | e -> Other (Printexc.to_string e)

type inst = {
  apply : pid:int -> op -> unit;
  refresh : pid:int -> unit;
  recycle : unit -> unit;  (** the barrier leader, at quiescence *)
  batch_counts : unit -> int * int;  (** batcher drains and cells served, all generations *)
}

let spf = Printf.sprintf

(* A client retries [Gave_up] after a short backoff; a bucket frozen for
   this long means the migrator died, which fails the run. *)
let max_frozen_ns = 10_000_000_000

module Make (P : Scs_prims.Prims_intf.S) = struct
  module Uc = Scs_universal.Uc_object.Make (P)
  module Sv = Scs_shard.Service.Make (P)
  module Ch = Scs_consensus.Chain.Make (P)
  module Sc = Scs_consensus.Split_consensus.Make (P)
  module Ab = Scs_consensus.Abortable_bakery.Make (P)
  module Cc = Scs_consensus.Cas_consensus.Make (P)

  (* split > bakery > cas; traced builds time every stage call and tag
     every object the factory creates with its stage. *)
  let stages ~traced ~uc ~n =
    let wrap s make =
      if traced then fun ~name ~slot ->
        Tracer.with_ctx (Tracer.t_split + s) (fun () ->
            Tracer.timed_stage ~stage:s ~uc (make ~name ~slot))
      else make
    in
    [
      wrap 0 (fun ~name ~slot -> Sc.instance (Sc.create ~name:(spf "%s.split[%d]" name slot) ()));
      wrap 1 (fun ~name ~slot ->
          Ab.instance (Ab.create ~name:(spf "%s.bakery[%d]" name slot) ~n ()));
      wrap 2 (fun ~name ~slot -> Cc.instance (Cc.create ~name:(spf "%s.cas[%d]" name slot) ()));
    ]

  let in_span traced layer f = if traced then Tracer.span layer f else f ()

  (* Per-domain budget rule of the load harness: a domain recycles after
     [(capacity - 2n - 2) / n] ops, so no key's UC can run out even if
     every op lands on it. *)
  let uc_solo ~traced c =
    let n = c.domains in
    let stages = stages ~traced ~uc:true ~n in
    let spec = if traced then Tracer.counting_spec Objects.register else Objects.register in
    let mk_arena () =
      Array.init c.keys (fun k ->
          Uc.Typed.create spec
            (Uc.create ~name:(spf "bench.uc[%d]" k) ~n ~max_requests:c.capacity ~stages ()))
    in
    let arena = ref (mk_arena ()) in
    let handles = Array.init n (fun pid -> Array.map (fun o -> Uc.Typed.handle o ~pid) !arena) in
    let budget = max 1 ((c.capacity - (2 * n) - 2) / n) in
    let used = Array.make n 0 and ctr = Array.make n 0 in
    (* committed requests per key in this generation = history length *)
    let hist = Array.make c.keys 0 in
    let apply ~pid op =
      let k = ctr.(pid) + 1 in
      ctr.(pid) <- k;
      let payload = if op.read then Objects.Reg_read else Objects.Reg_write op.arg in
      let req = Request.make ((k * n) + pid) payload in
      let h = handles.(pid).(op.key) in
      let r = in_span traced Tracer.l_uc (fun () -> Uc.Typed.apply h req) in
      op.resp <- (match r with Objects.Reg_value v -> v | Objects.Reg_ok -> -1);
      if traced then begin
        hist.(op.key) <- hist.(op.key) + 1;
        Tracer.bump (Tracer.get ()) Tracer.e_hist_len hist.(op.key)
      end;
      let u = used.(pid) + 1 in
      used.(pid) <- u;
      op.recycle <- u >= budget
    in
    {
      apply;
      refresh =
        (fun ~pid ->
          handles.(pid) <- Array.map (fun o -> Uc.Typed.handle o ~pid) !arena;
          used.(pid) <- 0);
      recycle =
        (fun () ->
          arena := mk_arena ();
          Array.fill hist 0 c.keys 0);
      batch_counts = (fun () -> (0, 0));
    }

  (* The sharded service through its batcher. Budgets are per domain
     and shard, as in the load harness; a migration charges the
     migrator's budget on both shards for its Freeze/Install slots and
     for the client attempts it can turn into committed [Refused]s. *)
  let kv ~traced c ~shards ~buckets ~migrate_every =
    let n = c.domains in
    let stages = stages ~traced ~uc:true ~n in
    let g = ref 0 in
    let mk () =
      incr g;
      let svc =
        Sv.create ~stages ~name:(spf "bench.svc.g%d" !g) ~n ~shards ~buckets ~capacity:c.capacity ()
      in
      ( svc,
        Sv.Batcher.create ~name:(spf "bench.bat.g%d" !g) svc,
        Sv.Migration.create ~name:(spf "bench.mig.g%d" !g) svc )
    in
    let arena = ref (mk ()) in
    let svc0, _, _ = !arena in
    let handles = Array.init n (fun pid -> Sv.handle svc0 ~pid) in
    let budget = max 1 ((c.capacity - (2 * n) - 4) / n) in
    let mig_cost = (2 * n) + 1 in
    let used = Array.make_matrix n shards 0 in
    (* the routing table as the migrator left it: only domain 0 writes *)
    let owner = Array.init buckets (fun b -> b mod shards) in
    let hist = Array.init shards (fun _ -> Atomic.make 0) in
    let done_batches = ref 0 and done_batched = ref 0 in
    let updates0 = ref 0 and next_bucket = ref 0 in
    let charge pid s k =
      let u = used.(pid).(s) + k in
      used.(pid).(s) <- u;
      u >= budget
    in
    let migrate mig =
      let b = !next_bucket mod buckets in
      incr next_bucket;
      let src = owner.(b) in
      let dst = (src + 1) mod shards in
      let st = Tracer.get () in
      let t0 = Tracer.now () in
      in_span traced Tracer.l_migration (fun () ->
          Sv.Migration.migrate mig ~h:handles.(0) ~bucket:b ~dst);
      Tracer.bump st Tracer.e_migrations 1;
      Tracer.bump st Tracer.e_migration_ns (Tracer.now () - t0);
      owner.(b) <- dst;
      let full_src = charge 0 src mig_cost in
      charge 0 dst mig_cost || full_src
    in
    let rec submit ~pid bat payload since =
      match
        in_span traced Tracer.l_svc (fun () -> Sv.Batcher.apply bat ~h:handles.(pid) payload)
      with
      | Sv.Done r -> r
      | Sv.Gave_up ->
          Tracer.bump (Tracer.get ()) Tracer.e_give_ups 1;
          let since = if since = 0 then Tracer.now () else since in
          if Tracer.now () - since > max_frozen_ns then raise (Unexpected "bucket stayed frozen");
          for _ = 1 to 256 do
            Domain.cpu_relax ()
          done;
          submit ~pid bat payload since
    in
    let apply ~pid op =
      let _, bat, mig = !arena in
      let migrated =
        migrate_every > 0 && pid = 0 && (not op.read)
        && begin
             incr updates0;
             !updates0 mod migrate_every = 0
           end
        && migrate mig
      in
      let payload = if op.read then Kv.Get op.key else Kv.Put (op.key, op.arg) in
      let s = owner.(Kv.bucket_of_key ~buckets op.key) in
      (op.resp <-
         (match submit ~pid bat payload 0 with
         | Kv.Value v -> v
         | Kv.Ack -> -1
         | (Kv.Refused | Kv.Sealed _) as r -> raise (Unexpected ("client got " ^ Kv.show_resp r))));
      if traced then
        Tracer.bump (Tracer.get ()) Tracer.e_hist_len (1 + Atomic.fetch_and_add hist.(s) 1);
      op.recycle <- charge pid s 1 || migrated
    in
    {
      apply;
      refresh =
        (fun ~pid ->
          let svc, _, _ = !arena in
          handles.(pid) <- Sv.handle svc ~pid;
          Array.fill used.(pid) 0 shards 0);
      recycle =
        (fun () ->
          let _, bat, _ = !arena in
          done_batches := !done_batches + Sv.Batcher.batches bat;
          done_batched := !done_batched + Sv.Batcher.batched_ops bat;
          arena := mk ();
          Array.iteri (fun b _ -> owner.(b) <- b mod shards) owner;
          Array.iter (fun a -> Atomic.set a 0) hist);
      batch_counts =
        (fun () ->
          let _, bat, _ = !arena in
          (!done_batches + Sv.Batcher.batches bat, !done_batched + Sv.Batcher.batched_ops bat));
    }

  (* Per key, an array of chain instances and a cursor: every proposer
     plays the current instance, the winner advances the cursor, and a
     recycle rebuilds only the decided prefix. *)
  let chain ~traced c =
    let n = c.domains and cap = c.capacity in
    let margin = (2 * n) + 2 in
    let stages = stages ~traced ~uc:false ~n in
    let on_handoff ~pid:_ ~stage:_ = Tracer.bump (Tracer.get ()) Tracer.e_handoffs 1 in
    let mk k i =
      let name = spf "bench.chain[%d]" k in
      let insts = List.map (fun make -> make ~name ~slot:i) stages in
      let name = spf "%s[%d]" name i in
      if traced then Tracer.with_ctx Tracer.t_chain (fun () -> Ch.make ~on_handoff ~name insts)
      else Ch.make ~name insts
    in
    let arena = Array.init c.keys (fun k -> Array.init cap (mk k)) in
    let cur = Array.init c.keys (fun _ -> Atomic.make 0) in
    let apply ~pid op =
      let key = op.key in
      let i = Atomic.get cur.(key) in
      if i >= cap then raise (Capacity_exhausted "chain: every instance of the key is decided");
      let v = pid + 1 in
      let inst = arena.(key).(i) in
      match in_span traced Tracer.l_chain (fun () -> inst.CI.run ~pid ~old:None v) with
      | Outcome.Commit (Some d) ->
          if d = v then ignore (Atomic.compare_and_set cur.(key) i (i + 1));
          op.arg <- v;
          op.resp <- d;
          op.slot <- i;
          op.recycle <- i >= cap - margin
      | Outcome.Commit None | Outcome.Abort _ -> raise (Unexpected "chain: no decision")
    in
    {
      apply;
      refresh = (fun ~pid:_ -> ());
      recycle =
        (fun () ->
          Array.iteri
            (fun k insts ->
              for i = 0 to min (Atomic.get cur.(k) + 1) cap - 1 do
                insts.(i) <- mk k i
              done;
              Atomic.set cur.(k) 0)
            arena);
      batch_counts = (fun () -> (0, 0));
    }

  let create ~traced c =
    match c.kind with
    | Uc_solo -> uc_solo ~traced c
    | Kv { shards; buckets; migrate_every } -> kv ~traced c ~shards ~buckets ~migrate_every
    | Chain_d2 -> chain ~traced c
end

module Native = Make (Scs_prims.Native_prims)
module Traced = Make (Traced_prims)

let create ~traced c = if traced then Traced.create ~traced c else Native.create ~traced c
