(* The sharded universal-construction service (lib/shard): routing
   totality and stability across migration epochs, migration safety and
   recovery, the flat-combining batcher, the 1-shard differential
   identity against the bare universal construction, and the
   partitioned-vs-monolithic checker agreement on migration-spanning
   fuzzed histories. All deterministic tests run on the native backend
   single-threaded (no concurrency, so outcomes are reproducible); the
   schedule-sensitive ones go through the simulator fuzz harness. *)

open Scs_spec
module Kv = Scs_shard.Kv
module P = Scs_prims.Native_prims
module S = Scs_shard.Service.Make (P)
module Sc = Scs_consensus.Split_consensus.Make (P)
module Ab = Scs_consensus.Abortable_bakery.Make (P)
module Cc = Scs_consensus.Cas_consensus.Make (P)

(* distinct object names per service instance: qcheck creates many *)
let fresh_name =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "tsvc%d" !c

let mk_svc ?(n = 2) ?(shards = 2) ?(buckets = 4) () =
  S.create ~name:(fresh_name ()) ~n ~shards ~buckets ~capacity:128 ()

(* ---- routing: totality and stability --------------------------------- *)

let prop_bucket_total =
  QCheck.Test.make ~count:500 ~name:"bucket_of_key total, deterministic, in range"
    QCheck.(pair int (int_range 1 64))
    (fun (key, buckets) ->
      let b = Kv.bucket_of_key ~buckets key in
      b = Kv.bucket_of_key ~buckets key && 0 <= b && b < buckets)

(* Every key routes to exactly one shard before, during and after a
   random sequence of freeze/assign table transitions, and each
   transition strictly bumps the bucket's epoch (the stale-router retry
   signal can never be missed). *)
let prop_routing_stable =
  QCheck.Test.make ~count:60 ~name:"routing total across migration epochs"
    QCheck.(small_list (pair (int_range 0 3) (int_range 0 1)))
    (fun transitions ->
      let svc = mk_svc () in
      let rt = S.router svc in
      let check_total () =
        List.for_all
          (fun key ->
            let r = S.R.route rt ~key in
            0 <= r.S.R.owner && r.S.R.owner < 2)
          (List.init 32 (fun k -> k))
      in
      check_total ()
      && List.for_all
           (fun (bucket, dst) ->
             let before = S.R.route_bucket rt ~bucket in
             let frozen = S.R.freeze rt ~bucket in
             let ok_frozen =
               frozen.S.R.frozen && frozen.S.R.epoch > before.S.R.epoch && check_total ()
             in
             let after = S.R.assign rt ~bucket ~shard:dst in
             ok_frozen
             && (not after.S.R.frozen)
             && after.S.R.owner = dst
             && after.S.R.epoch > frozen.S.R.epoch
             && check_total ())
           transitions)

(* ---- frozen buckets: bounded retries, never silent drops ------------- *)

let test_frozen_gives_up () =
  let svc = mk_svc () in
  let h = S.handle svc ~pid:0 in
  (match S.apply h (Kv.Put (0, 7)) with
  | S.Done Kv.Ack -> ()
  | _ -> Alcotest.fail "put should commit");
  let b = Kv.bucket_of_key ~buckets:(S.buckets svc) 0 in
  let owner = (S.R.route_bucket (S.router svc) ~bucket:b).S.R.owner in
  ignore (S.R.freeze (S.router svc) ~bucket:b);
  (* single-threaded: nobody will ever unfreeze, so the bounded retry
     loop must surface Gave_up — the op is reported, not dropped *)
  (match S.apply ~retries:5 h (Kv.Get 0) with
  | S.Gave_up -> ()
  | S.Done r -> Alcotest.failf "frozen bucket answered %s" (Kv.show_resp r));
  (* unfreeze in place: the same client op now commits, exactly once *)
  ignore (S.R.assign (S.router svc) ~bucket:b ~shard:owner);
  match S.apply h (Kv.Get 0) with
  | S.Done (Kv.Value 7) -> ()
  | _ -> Alcotest.fail "value lost across freeze/unfreeze"

(* ---- migration: end-to-end, state transfer, idempotent recovery ------ *)

let test_migration_moves_bucket () =
  let svc = mk_svc ~shards:2 ~buckets:4 () in
  let h = S.handle svc ~pid:0 in
  let mig = S.Migration.create ~name:(fresh_name ()) svc in
  List.iter
    (fun (k, v) ->
      match S.apply h (Kv.Put (k, v)) with
      | S.Done Kv.Ack -> ()
      | _ -> Alcotest.fail "seed put failed")
    [ (0, 10); (4, 14); (1, 11) ];
  let b = Kv.bucket_of_key ~buckets:4 0 in
  let src = (S.R.route_bucket (S.router svc) ~bucket:b).S.R.owner in
  let dst = (src + 1) mod 2 in
  S.Migration.migrate mig ~h ~bucket:b ~dst;
  let r = S.R.route_bucket (S.router svc) ~bucket:b in
  Alcotest.(check int) "bucket re-routed to dst" dst r.S.R.owner;
  Alcotest.(check bool) "bucket unfrozen" false r.S.R.frozen;
  (match S.Migration.phase mig with
  | S.Migration.Idle -> ()
  | _ -> Alcotest.fail "migration did not settle to Idle");
  (* the sealed state moved: reads through the router see every write,
     and a fresh write lands on the new owner *)
  List.iter
    (fun (k, v) ->
      match S.apply h (Kv.Get k) with
      | S.Done (Kv.Value got) when got = v -> ()
      | S.Done r -> Alcotest.failf "key %d: got %s, want %d" k (Kv.show_resp r) v
      | S.Gave_up -> Alcotest.failf "key %d: gave up" k)
    [ (0, 10); (4, 14); (1, 11) ];
  (match S.apply h (Kv.Put (0, 99)) with
  | S.Done Kv.Ack -> ()
  | _ -> Alcotest.fail "post-migration put failed");
  (match S.apply h (Kv.Get 0) with
  | S.Done (Kv.Value 99) -> ()
  | _ -> Alcotest.fail "post-migration value wrong");
  (* recovery on an Idle migration is a no-op *)
  S.Migration.recover mig ~h;
  match S.apply h (Kv.Get 0) with
  | S.Done (Kv.Value 99) -> ()
  | _ -> Alcotest.fail "idle recover disturbed state"

let test_migration_in_place () =
  (* migrating a bucket onto its current owner: freeze, reinstall,
     unfreeze — state intact *)
  let svc = mk_svc ~shards:2 ~buckets:4 () in
  let h = S.handle svc ~pid:0 in
  let mig = S.Migration.create ~name:(fresh_name ()) svc in
  ignore (S.apply h (Kv.Put (2, 22)));
  let b = Kv.bucket_of_key ~buckets:4 2 in
  let owner = (S.R.route_bucket (S.router svc) ~bucket:b).S.R.owner in
  S.Migration.migrate mig ~h ~bucket:b ~dst:owner;
  match S.apply h (Kv.Get 2) with
  | S.Done (Kv.Value 22) -> ()
  | _ -> Alcotest.fail "in-place migration lost the bucket"

(* The in-flight attempt stays recorded after [apply] returns, so a
   migration by the same handle can commit on the attempt's shard before
   [recover] re-applies it: the attempt is then committed but not the
   shard's last answer, and must still get its original response. *)
let test_recover_after_migration () =
  let svc = mk_svc ~shards:2 ~buckets:4 () in
  let h = S.handle svc ~pid:0 in
  let mig = S.Migration.create ~name:(fresh_name ()) svc in
  ignore (S.apply h (Kv.Put (2, 22)));
  ignore (S.apply h (Kv.Get 2));
  let b = Kv.bucket_of_key ~buckets:4 2 in
  let owner = (S.R.route_bucket (S.router svc) ~bucket:b).S.R.owner in
  S.Migration.migrate mig ~h ~bucket:b ~dst:(1 - owner);
  match S.recover h with
  | Some (S.Done (Kv.Value 22)) -> ()
  | _ -> Alcotest.fail "recovery did not return the attempt's response"

(* ---- the flat-combining batcher -------------------------------------- *)

let test_batcher_self_service () =
  let svc = mk_svc () in
  let bat = S.Batcher.create ~name:(fresh_name ()) svc in
  let h = S.handle svc ~pid:0 in
  (match S.Batcher.apply bat ~h (Kv.Put (3, 33)) with
  | S.Done Kv.Ack -> ()
  | _ -> Alcotest.fail "batched put failed");
  (match S.Batcher.apply bat ~h (Kv.Get 3) with
  | S.Done (Kv.Value 33) -> ()
  | _ -> Alcotest.fail "batched get wrong");
  Alcotest.(check bool) "drains counted" true (S.Batcher.batches bat >= 2);
  Alcotest.(check int) "every cell served" 2 (S.Batcher.batched_ops bat)

(* Two native domains through one batcher while domain 0 migrates the
   bucket of its current key every 40 of its ops. Key k is written only
   by domain k mod 2, so each key's last acknowledged [Put] is known
   without a checker. A [Gave_up] op had no effect (every attempt was
   refused or waited on a frozen route) and is not a completed op. *)
let test_batcher_two_domains_migrating () =
  let ops = 150 and keys = 16 in
  let svc = S.create ~name:(fresh_name ()) ~n:2 ~shards:2 ~buckets:8 ~capacity:2048 () in
  let bat = S.Batcher.create ~name:(fresh_name ()) svc in
  let mig = S.Migration.create ~name:(fresh_name ()) svc in
  let ready = Atomic.make 0 in
  let worker pid () =
    let h = S.handle svc ~pid in
    (* start together, so that the ops and migrations overlap *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let last = Array.make keys None and completed = ref 0 in
    for i = 1 to ops do
      let key = pid + (2 * (i * 5 mod (keys / 2))) in
      let req = if i mod 3 = 0 then Kv.Get key else Kv.Put (key, (1000 * pid) + i) in
      (match (S.Batcher.apply bat ~h req, req) with
      | S.Done Kv.Ack, Kv.Put (_, v) ->
          incr completed;
          last.(key) <- Some v
      | S.Done _, _ -> incr completed
      | S.Gave_up, _ -> ());
      if pid = 0 && i mod 40 = 0 then begin
        let bucket = Kv.bucket_of_key ~buckets:8 key in
        let owner = (S.R.route_bucket (S.router svc) ~bucket).S.R.owner in
        S.Migration.migrate mig ~h ~bucket ~dst:((owner + 1) mod 2)
      end
    done;
    (!completed, h, last)
  in
  let results = List.map Domain.join (List.init 2 (fun pid -> Domain.spawn (worker pid))) in
  let served = List.init 2 (fun shard -> S.Batcher.served_ops bat ~shard) in
  Alcotest.(check int) "every completed op served by exactly one shard"
    (List.fold_left (fun acc (c, _, _) -> acc + c) 0 results)
    (List.fold_left ( + ) 0 served);
  List.iteri (fun s n -> if n = 0 then Alcotest.failf "shard %d served no op" s) served;
  (* each domain's handle reads its own keys: a fresh handle would
     reuse request ids the old one already committed *)
  List.iter
    (fun (_, h, last) ->
      Array.iteri
        (fun key -> function
          | None -> ()
          | Some v -> (
              match S.apply h (Kv.Get key) with
              | S.Done (Kv.Value got) when got = v -> ()
              | S.Done r -> Alcotest.failf "key %d: got %s, want %d" key (Kv.show_resp r) v
              | S.Gave_up -> Alcotest.failf "key %d: final get gave up" key))
        last)
    results

(* ---- the batcher under chosen schedules ------------------------------- *)

module Sim = Scs_sim.Sim
module Policy = Scs_sim.Policy
module Trace = Scs_history.Trace

type batcher_run = {
  sim : Sim.t;  (** its memory trace is kept *)
  ops : (Kv.req, Kv.resp, unit) Trace.operation list;
  served : int;  (** summed over the shards *)
  batches : int;
  completed : int;
}

(* [scripts.(pid)] through one simulated batcher named "bat" (mailboxes
   "bat.cell[p]", locks "bat.lock[s]") over a service named "svc", each
   op recorded in a client trace. *)
let run_batcher ~shards ~buckets scripts policy =
  let n = Array.length scripts in
  let sim = Sim.create ~n () in
  Sim.set_trace sim true;
  let module Sp = (val Scs_prims.Backend.sim_prims Scs_prims.Backend.default sim) in
  let module Ss = Scs_shard.Service.Make (Sp) in
  let svc = Ss.create ~name:"svc" ~n ~shards ~buckets ~capacity:64 () in
  let bat = Ss.Batcher.create ~name:"bat" svc in
  let tr = Trace.create ~clock:(fun () -> Sim.clock sim) () in
  let gen = Request.Gen.create () and completed = ref 0 in
  Array.iteri
    (fun pid script ->
      Sim.spawn sim pid (fun () ->
          let h = Ss.handle svc ~pid in
          List.iter
            (fun payload ->
              let rq = Request.Gen.fresh gen payload in
              Trace.invoke tr ~pid rq;
              match Ss.Batcher.apply bat ~h payload with
              | Ss.Done resp ->
                  incr completed;
                  Trace.commit tr ~pid rq resp
              | Ss.Gave_up -> Alcotest.failf "p%d gave up with no migration" pid)
            script))
    scripts;
  Sim.run sim policy;
  {
    sim;
    ops = Trace.operations (Trace.events tr);
    served = List.fold_left (fun acc shard -> acc + Ss.Batcher.served_ops bat ~shard) 0
        (List.init shards Fun.id);
    batches = Ss.Batcher.batches bat;
    completed = !completed;
  }

(* steps in [sim]'s memory trace that satisfy [f] *)
let steps sim f =
  Array.fold_left (fun acc e -> if f e then acc + 1 else acc) 0 (Sim.trace_arr sim)

let step_is ~pid ~kind ~obj (e : Scs_sim.Mem_event.t) =
  e.pid = pid && e.kind = kind && e.obj_name = obj

(* Mailbox writes by a process other than the mailbox's owner: cells a
   combiner served for someone else. *)
let foreign_box_write (e : Scs_sim.Mem_event.t) =
  e.kind = Scs_sim.Op.Write
  && Scanf.sscanf_opt e.obj_name "bat.cell[%d]" (fun owner -> owner <> e.pid) = Some true

(* The same batcher code under the simulator, randomly interleaved:
   every process writes and reads back its own key, and the shards'
   served counts account for every op. *)
let test_batcher_sim () =
  let n = 3 in
  let run =
    run_batcher ~shards:2 ~buckets:4
      (Array.init n (fun pid -> [ Kv.Put (pid, pid + 10); Kv.Get pid ]))
      (Policy.random (Scs_util.Rng.create 5))
  in
  List.iter
    (fun (o : _ Trace.operation) ->
      match (Request.payload o.Trace.op_req, o.Trace.outcome) with
      | Kv.Put _, Trace.Committed { resp = Kv.Ack; _ } -> ()
      | Kv.Get pid, Trace.Committed { resp = Kv.Value v; _ } when v = pid + 10 -> ()
      | _ -> Alcotest.failf "p%d: wrong or missing read-back" o.Trace.op_pid)
    run.ops;
  Alcotest.(check int) "every op completed" (2 * n) run.completed;
  Alcotest.(check int) "every op served once" (2 * n) run.served

(* While p0 holds shard 0's lock and applies its own cell, p1 pushes
   and spins. p0's re-grab serves p1's cell before p0 releases, p0
   writes p1's answer only after the release, and p1, reading the lock
   held, never tries the RMW. The schedule: p0 until
   its first step inside the shard's UC; p1 until its first pause (it
   found its mailbox empty, then the lock held); p0 to the end; p1 to
   the end. *)
let test_batcher_regrab () =
  let open Scs_sim.Op in
  let in_uc (e : Scs_sim.Mem_event.t) =
    e.pid = 0 && String.starts_with ~prefix:"svc.shard[" e.obj_name
  in
  let phases =
    [|
      (0, fun sim -> steps sim in_uc > 0);
      (1, fun sim -> steps sim (step_is ~pid:1 ~kind:Read ~obj:"pause") > 0);
      (0, fun sim -> Sim.finished sim 0);
      (1, fun sim -> Sim.finished sim 1);
    |]
  in
  let phase = ref 0 in
  let policy sim =
    while !phase < Array.length phases && (snd phases.(!phase)) sim do
      incr phase
    done;
    if !phase = Array.length phases then -1
    else
      let pid = fst phases.(!phase) in
      if Sim.is_runnable sim pid then pid else -1
  in
  let run =
    run_batcher ~shards:1 ~buckets:1 [| [ Kv.Put (0, 1) ]; [ Kv.Put (1, 2) ] |] policy
  in
  Alcotest.(check bool) "schedule ran to the end" true (Sim.all_done run.sim);
  Alcotest.(check int) "both ops completed" 2 run.completed;
  Alcotest.(check int) "p1 tried no test_and_set" 0
    (steps run.sim (step_is ~pid:1 ~kind:Rmw ~obj:"bat.lock[0]"));
  Alcotest.(check int) "p0 wrote p1's mailbox" 1
    (steps run.sim (step_is ~pid:0 ~kind:Write ~obj:"bat.cell[1]"));
  Alcotest.(check int) "p0 served both cells in two grabs" 2 run.batches;
  let first f =
    let tr = Sim.trace_arr run.sim in
    let rec go i = if i = Array.length tr then max_int else if f tr.(i) then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "p0 answered p1 after releasing the lock" true
    (first (step_is ~pid:0 ~kind:Write ~obj:"bat.lock[0]")
    < first (step_is ~pid:0 ~kind:Write ~obj:"bat.cell[1]"))

(* Seeded schedules over 3 processes, 2 keys that every process shares
   and 2 shards (one key per shard): each client history must be
   linearizable per key, every completed op is served exactly once,
   and some combiner serves another process's cell. Half the schedules
   are uniformly random; the other half are PCT priority schedules for
   their first [pct_depth] turns and uniformly random after. The
   batcher is blocking, so a fixed priority order can leave the lock
   holder unscheduled forever; the random tail lets every run end. *)
let battery_runs = 200
let pct_depth = 400

let test_batcher_battery () =
  let rng = Test_seed.rng 20 in
  let k0 = 0 in
  let k1 =
    let b0 = Kv.bucket_of_key ~buckets:2 k0 in
    let rec find k = if Kv.bucket_of_key ~buckets:2 k <> b0 then k else find (k + 1) in
    find 1
  in
  let script pid =
    List.init 4 (fun i ->
        let key = if Scs_util.Rng.bool rng then k0 else k1 in
        if Scs_util.Rng.bool rng then Kv.Put (key, (100 * pid) + i + 1) else Kv.Get key)
  in
  let key (o : _ Trace.operation) = Option.get (Kv.key_of_req (Request.payload o.Trace.op_req)) in
  let foreign = ref 0 in
  let one name i policy =
    let scripts = Array.init 3 script in
    let run = run_batcher ~shards:2 ~buckets:2 scripts policy in
    let fail fmt = Alcotest.failf ("%s schedule %d: " ^^ fmt ^^ "%s") name i in
    if run.completed <> 12 then fail "%d of 12 ops completed" run.completed Test_seed.label;
    if run.served <> run.completed then
      fail "shards served %d, %d completed" run.served run.completed Test_seed.label;
    if not (Scs_history.Linearize.check_partitioned ~key ~spec:(fun _ -> Kv.flat_spec) run.ops)
    then fail "not linearizable per key" Test_seed.label;
    foreign := !foreign + steps run.sim foreign_box_write
  in
  for i = 1 to battery_runs do
    one "random" i (Policy.random (Scs_util.Rng.split rng))
  done;
  for i = 1 to battery_runs do
    let pct = Policy.pct (Scs_util.Rng.split rng) ~k:3 ~depth:pct_depth in
    let tail = Policy.random (Scs_util.Rng.split rng) in
    one "pct" i (fun sim -> if Sim.clock sim < pct_depth then pct sim else tail sim)
  done;
  if !foreign = 0 then
    Alcotest.failf "no combiner served another process's cell%s" Test_seed.label

(* ---- 1-shard differential identity ----------------------------------- *)

(* The same deterministic op sequence through (a) the 1-shard service
   and (b) the bare universal-construction keyspace object must yield
   identical responses op for op: the router/migration layer degenerates
   to the identity when there is nothing to route. *)
let script n =
  List.concat_map
    (fun pid ->
      List.map
        (fun req -> (pid, req))
        [
          Kv.Put (pid mod 4, (10 * pid) + 1);
          Kv.Get (pid mod 4);
          Kv.Put ((pid + 1) mod 4, (10 * pid) + 2);
          Kv.Get ((pid + 1) mod 4);
          Kv.Get ((pid + 2) mod 4);
        ])
    (List.init n (fun p -> p))

let test_s1_identity () =
  let n = 3 in
  let svc = mk_svc ~n ~shards:1 ~buckets:1 () in
  let sh = Array.init n (fun pid -> S.handle svc ~pid) in
  let svc_resps =
    List.map
      (fun (pid, req) ->
        match S.apply sh.(pid) req with
        | S.Done r -> r
        | S.Gave_up -> Alcotest.fail "1-shard service gave up uncontended")
      (script n)
  in
  let stages =
    let spf = Printf.sprintf in
    [
      (fun ~name ~slot -> Sc.instance (Sc.create ~name:(spf "%s.split[%d]" name slot) ()));
      (fun ~name ~slot -> Ab.instance (Ab.create ~name:(spf "%s.bakery[%d]" name slot) ~n ()));
      (fun ~name ~slot -> Cc.instance (Cc.create ~name:(spf "%s.cas[%d]" name slot) ()));
    ]
  in
  let obj =
    S.Uc.Typed.create (Kv.spec ~buckets:1)
      (S.Uc.create ~name:(fresh_name ()) ~n ~max_requests:128 ~stages ())
  in
  let uh = Array.init n (fun pid -> S.Uc.Typed.handle obj ~pid) in
  let gen = Request.Gen.create () in
  let uc_resps =
    List.map (fun (pid, req) -> S.Uc.Typed.apply uh.(pid) (Request.Gen.fresh gen req)) (script n)
  in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "op %d: service %s <> uc %s" i (Kv.show_resp a) (Kv.show_resp b))
    (List.combine svc_resps uc_resps)

(* ---- fuzzed migration-spanning histories ------------------------------ *)

(* Random schedules over the migrating 2-shard workload, including
   crash and crash-recover faults fired mid-migration. The workload's
   check runs the per-key partitioned linearizability verdict AND the
   monolithic cross-check on every small history — so each clean run is
   one verified instance of the compositionality agreement. *)
let fuzz_specs ~crash ~recover =
  [ { Scs_sim.Fuzz.kind = Scs_sim.Fuzz.Uniform; crash_faults = crash; crash_recover = recover } ]

let mini_fuzz name w ~crash ~recover =
  let report =
    Scs_workload.Fuzz_run.fuzz ~policies:(fuzz_specs ~crash ~recover) ~runs:120
      ~max_violations:1 ~seed:91 w ~n:w.Scs_workload.Fuzz_run.default_n
  in
  match report.Scs_sim.Fuzz.r_violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s: %s" name v.Scs_sim.Fuzz.v_error

let test_fuzz_migrate () =
  mini_fuzz "sharded-kv-migrate" Scs_workload.Shard_run.sharded_kv_migrate ~crash:false
    ~recover:false

let test_fuzz_migrate_crash () =
  mini_fuzz "sharded-kv-migrate+crash" Scs_workload.Shard_run.sharded_kv_migrate ~crash:true
    ~recover:false

let test_fuzz_migrate_recover () =
  mini_fuzz "sharded-kv-migrate+crash-recover" Scs_workload.Shard_run.sharded_kv_migrate
    ~crash:true ~recover:true

let test_fuzz_s1_vs_uc () =
  (* the differential pair both fuzz clean on the same seeds *)
  mini_fuzz "sharded-kv-s1" Scs_workload.Shard_run.sharded_kv_s1 ~crash:false ~recover:false;
  mini_fuzz "uc-kv" Scs_workload.Shard_run.uc_kv ~crash:false ~recover:false

let props =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(Test_seed.rand ()) t)
    [ prop_bucket_total; prop_routing_stable ]

let tests =
  props
  @ [
      Alcotest.test_case "frozen bucket: bounded Gave_up, then exactly-once" `Quick
        test_frozen_gives_up;
      Alcotest.test_case "migration moves a bucket with its state" `Quick
        test_migration_moves_bucket;
      Alcotest.test_case "in-place migration preserves state" `Quick test_migration_in_place;
      Alcotest.test_case "batcher self-service drains" `Quick test_batcher_self_service;
      Alcotest.test_case "batcher: two domains, two shards, migrating" `Quick
        test_batcher_two_domains_migrating;
      Alcotest.test_case "batcher under the simulator" `Quick test_batcher_sim;
      Alcotest.test_case "batcher: a re-grab serves a waiter that never locks" `Quick
        test_batcher_regrab;
      Alcotest.test_case "1-shard service ≡ bare UC (response identity)" `Quick
        test_s1_identity;
      Alcotest.test_case "fuzz: migrating service (uniform)" `Slow test_fuzz_migrate;
      Alcotest.test_case "fuzz: migrating service (crash)" `Slow test_fuzz_migrate_crash;
      Alcotest.test_case "fuzz: migrating service (crash-recover)" `Slow
        test_fuzz_migrate_recover;
      Alcotest.test_case "fuzz: differential pair both clean" `Slow test_fuzz_s1_vs_uc;
      Alcotest.test_case "recover after a migration by the same handle" `Quick
        test_recover_after_migration;
    ]

(* run on its own under fixed seeds in CI *)
let battery_tests =
  [ Alcotest.test_case "batcher: seeded random and PCT schedules" `Quick test_batcher_battery ]

(* ---- the bucketed shard spec against the sorted-list oracle ----------- *)

(* Random request sequences over 12 keys, so equal maps recur; admin
   buckets are mostly the bucket of a key, sometimes any index in
   [-1, buckets], and Install pairs carry keys of every bucket. *)
let gen_kv_reqs ~buckets =
  let open QCheck.Gen in
  let key = int_bound 11 and v = int_bound 3 in
  let bucket =
    frequency
      [ (3, map (Kv.bucket_of_key ~buckets) key); (1, int_range (-1) buckets) ]
  in
  let req =
    frequency
      [
        (3, map (fun k -> Kv.Get k) key);
        (4, map2 (fun k v -> Kv.Put (k, v)) key v);
        (1, map (fun b -> Kv.Freeze b) bucket);
        (1, map2 (fun b ps -> Kv.Install (b, ps)) bucket (list_size (int_bound 4) (pair key v)));
      ]
  in
  (* a sequence and a reordering of it: different paths to equal maps *)
  list_size (int_bound 30) (pair req nat)
  |> map (fun tagged ->
         ( List.map fst tagged,
           List.map fst (List.stable_sort (fun (_, a) (_, b) -> compare a b) tagged) ))

(* The states after every prefix of [reqs], and the responses. *)
let kv_run (spec : (_, _, _) Spec.t) reqs =
  let _, states, resps =
    List.fold_left
      (fun (q, states, resps) req ->
        let q, r = spec.Spec.apply q req in
        (q, q :: states, r :: resps))
      (spec.Spec.init, [ spec.Spec.init ], [])
      reqs
  in
  (List.rev states, List.rev resps)

let prop_kv_matches_ref buckets =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "bucketed Kv.spec matches the sorted-list oracle (b%d)" buckets)
    (QCheck.make
       ~print:(fun (a, b) ->
         let show l = String.concat "; " (List.map Kv.show_req l) in
         show a ^ " | reordered: " ^ show b)
       (gen_kv_reqs ~buckets))
    (fun (s1, s2) ->
      let spec = Kv.spec ~buckets and oracle = Kv_ref.spec ~buckets in
      let new1, r1 = kv_run spec s1 and new2, r2 = kv_run spec s2 in
      let ref1, o1 = kv_run oracle s1 and ref2, o2 = kv_run oracle s2 in
      if r1 <> o1 || r2 <> o2 then
        QCheck.Test.fail_reportf "responses differ from the oracle%s" Test_seed.label;
      let states = List.combine (new1 @ new2) (ref1 @ ref2) in
      List.for_all
        (fun (q, rq) ->
          List.for_all
            (fun (q', rq') ->
              let same = spec.Spec.equal_state q q' in
              if same <> (rq = rq') then
                QCheck.Test.fail_reportf "state equality differs from the oracle's%s"
                  Test_seed.label;
              (not same) || spec.Spec.hash_state q = spec.Spec.hash_state q')
            states)
        states)

(* run on its own under fixed seeds in CI *)
let kv_diff_tests =
  List.map
    (fun b -> QCheck_alcotest.to_alcotest ~rand:(Test_seed.rand ()) (prop_kv_matches_ref b))
    [ 1; 2; 64 ]
