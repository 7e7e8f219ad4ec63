open Scs_spec
open Scs_history
open Scs_sim
module Kv = Scs_shard.Kv

let violation fmt = Printf.ksprintf (fun s -> raise (Fuzz.Violation s)) fmt
let slot () = ref None
let get slot = Option.get !slot

type kv_trace = (Kv.req, Kv.resp, unit) Trace.t

(* Deterministic per-pid op scripts over a 6-key space; fuzzing varies
   schedules and crashes, not operations. Values are unique per (pid,
   op) so the spec can tell writes apart. *)
let keyspace = 6

let client_script pid =
  [
    Kv.Put (pid mod keyspace, (10 * pid) + 1);
    Kv.Put ((pid + 1) mod keyspace, (10 * pid) + 2);
    Kv.Get (pid mod keyspace);
    Kv.Put ((pid + 2) mod keyspace, (10 * pid) + 3);
    Kv.Get ((pid + 1) mod keyspace);
  ]

(* The client-level check: per-key compositional verdict, cross-checked
   against the monolithic checker on small histories (they must agree —
   the compositionality theorem made executable). *)
let kv_check ~what slot _sim =
  let tr : kv_trace = get slot in
  let ops =
    match Trace.operations (Trace.events tr) with
    | ops -> ops
    | exception Invalid_argument msg -> violation "%s: malformed trace: %s" what msg
  in
  let nops = List.length ops in
  if nops > Fuzz.large_history then Fuzz.checked_large ();
  let key (o : _ Trace.operation) =
    match Kv.key_of_req (Request.payload o.Trace.op_req) with
    | Some k -> k
    | None -> violation "%s: administrative request leaked into the client trace" what
  in
  let part_ok = Linearize.check_partitioned ~key ~spec:(fun _ -> Kv.flat_spec) ops in
  if not part_ok then violation "%s: per-key partitioned check failed (%d ops)" what nops;
  if nops <= 36 && not (Linearize.check_operations Kv.flat_spec ops) then
    violation "%s: partitioned and monolithic verdicts disagree (%d ops)" what nops

(* ---- the sharded service under fuzzed schedules ----------------------- *)

let sharded_setup ~shards ~buckets ~migrate ~backend ~n slot sim =
  let module P = (val Scs_prims.Backend.sim_prims backend sim : Scs_prims.Prims_intf.S) in
  let module S = Scs_shard.Service.Make (P) in
  let svc = S.create ~name:"svc" ~n ~shards ~buckets ~capacity:256 () in
  let mig = S.Migration.create ~name:"mig" svc in
  let tr : kv_trace = Trace.create ~clock:(fun () -> Sim.clock sim) () in
  slot := Some tr;
  let gen = Request.Gen.create () in
  let infl = Array.make n None in
  let handles = Array.init n (fun pid -> S.handle svc ~pid) in
  let record pid rq outcome =
    (* clear the in-flight mark BEFORE committing: a crash in between
       leaves the op pending (sound) instead of re-running it *)
    infl.(pid) <- None;
    match outcome with
    | S.Done resp -> Trace.commit tr ~pid rq resp
    | S.Gave_up -> ()
  in
  let do_op pid payload =
    let rq = Request.Gen.fresh gen payload in
    Trace.invoke tr ~pid rq;
    infl.(pid) <- Some rq;
    record pid rq (S.apply handles.(pid) payload)
  in
  let migrator = n - 1 in
  for pid = 0 to n - 1 do
    Sim.set_recovery sim pid (fun () ->
        (* the migrator resumes its delegation first (its own client
           ops never overlap the migration, so at most one of the two
           branches does real work) *)
        if migrate && pid = migrator then S.Migration.recover mig ~h:handles.(pid);
        match infl.(pid) with
        | None -> ()
        | Some rq -> (
            Trace.recover tr ~pid rq;
            match S.recover handles.(pid) with
            | Some outcome -> record pid rq outcome
            | None ->
                (* no attempt reached any shard: safe to run afresh *)
                record pid rq (S.apply handles.(pid) (Request.payload rq))));
    Sim.spawn sim pid (fun () ->
        if migrate && pid = migrator then begin
          do_op pid (Kv.Put (0, 900 + pid));
          let rt = S.router svc in
          let b = Kv.bucket_of_key ~buckets 0 in
          let dst = ((S.R.route_bucket rt ~bucket:b).S.R.owner + 1) mod shards in
          S.Migration.migrate mig ~h:handles.(pid) ~bucket:b ~dst;
          do_op pid (Kv.Get 0);
          do_op pid (Kv.Put (1, 910 + pid))
        end
        else List.iter (do_op pid) (client_script pid))
  done

let mk_sharded name ~describe ~shards ~buckets ~migrate =
  {
    Workload_def.name;
    describe;
    default_n = 3;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        {
          Workload_def.setup = sharded_setup ~shards ~buckets ~migrate ~backend ~n s;
          check = kv_check ~what:name s;
        });
  }

let sharded_kv =
  mk_sharded "sharded-kv" ~shards:2 ~buckets:4 ~migrate:false
    ~describe:"keyed gets/puts routed over 2 UC shards: per-key compositional linearizability"

let sharded_kv_migrate =
  mk_sharded "sharded-kv-migrate" ~shards:2 ~buckets:4 ~migrate:true
    ~describe:
      "2-shard service with a mid-run bucket delegation; crash/crash-recover safe \
       (freeze-seal-install-reroute, recovery from the durable phase)"

let sharded_kv_s1 =
  mk_sharded "sharded-kv-s1" ~shards:1 ~buckets:1 ~migrate:false
    ~describe:"the sharded service degenerated to 1 shard — uc-kv's differential twin"

(* ---- the bare universal-construction keyspace object ------------------ *)

let uc_setup ~backend ~n slot sim =
  let module P = (val Scs_prims.Backend.sim_prims backend sim : Scs_prims.Prims_intf.S) in
  let module S = Scs_shard.Service.Make (P) in
  let module Uc = S.Uc in
  let obj =
    Uc.Typed.create (Kv.spec ~buckets:1)
      (Uc.create ~name:"uckv" ~n ~max_requests:256 ~stages:(S.default_stages ~n) ())
  in
  let tr : kv_trace = Trace.create ~clock:(fun () -> Sim.clock sim) () in
  slot := Some tr;
  let gen = Request.Gen.create () in
  let infl = Array.make n None in
  let handles = Array.init n (fun pid -> Uc.Typed.handle obj ~pid) in
  let do_op pid payload =
    let rq = Request.Gen.fresh gen payload in
    Trace.invoke tr ~pid rq;
    infl.(pid) <- Some rq;
    let resp = Uc.Typed.apply handles.(pid) rq in
    infl.(pid) <- None;
    Trace.commit tr ~pid rq resp
  in
  for pid = 0 to n - 1 do
    Sim.set_recovery sim pid (fun () ->
        match infl.(pid) with
        | None -> ()
        | Some rq ->
            (* re-propose the SAME id: the UC deduplicates, so this is
               the crashed attempt's response or a first commit *)
            Trace.recover tr ~pid rq;
            let resp = Uc.Typed.apply handles.(pid) rq in
            infl.(pid) <- None;
            Trace.commit tr ~pid rq resp);
    Sim.spawn sim pid (fun () -> List.iter (do_op pid) (client_script pid))
  done

let uc_kv =
  {
    Workload_def.name = "uc-kv";
    describe = "bare universal-construction keyspace object (no router) — identity baseline";
    default_n = 3;
    expect_failures = false;
    instantiate =
      (fun ?(backend = Scs_prims.Backend.default) ~n () ->
        let s = slot () in
        {
          Workload_def.setup = uc_setup ~backend ~n s;
          check = kv_check ~what:"uc-kv" s;
        });
  }

let all = [ sharded_kv; sharded_kv_migrate; sharded_kv_s1; uc_kv ]
