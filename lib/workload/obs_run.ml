open Scs_util
open Scs_sim
open Scs_composable
open Scs_obs

type target = A1 | Tas of Tas_run.algo | Cons of Cons_run.algo | Shard

let target_name = function
  | A1 -> "a1"
  | Tas a -> Tas_run.algo_name a
  | Cons a -> Cons_run.algo_name a
  | Shard -> "sharded"

let all_targets =
  [
    A1;
    Tas Tas_run.Composed;
    Tas Tas_run.Strict;
    Tas Tas_run.Solo_fast;
    Tas Tas_run.Hardware;
    Tas Tas_run.Tournament;
    Cons Cons_run.Split;
    Cons Cons_run.Bakery;
    Cons Cons_run.Cas;
    Cons Cons_run.Chain3;
    Shard;
  ]

let target_of_string s = List.find_opt (fun t -> target_name t = s) all_targets
let target_names () = List.map target_name all_targets

type agg = {
  workload : string;
  backend : string;
  n : int;
  runs : int;
  ops : Obs.op_metric list;
  steps : Stats.summary;
  step_cont : Stats.summary;
  max_interval_contention : int;
  aborts : int;
  handoffs : int;
  crashes : int;
  schedules_per_sec : float;
  objects : (string * int * int) list;
}

(* Sharded service: every pid pushes a short keyed script through the
   2-shard router; each client operation is bracketed under the label of
   the shard that owns its key at invoke time, so the batch aggregate
   splits into per-shard step/contention profiles (and their op-count
   imbalance) for free. *)
let shard_shards = 2
let shard_buckets = 4

let install_shard ~backend ~obs ~n sim =
  let module P = (val Scs_prims.Backend.sim_prims backend sim) in
  let module S = Scs_shard.Service.Make (P) in
  let keys = 2 * shard_shards in
  let svc =
    S.create ~name:"svc" ~n ~shards:shard_shards ~buckets:shard_buckets
      ~capacity:(max 64 (8 * n)) ()
  in
  let rt = S.router svc in
  for pid = 0 to n - 1 do
    let h = S.handle svc ~pid in
    Sim.spawn sim pid (fun () ->
        List.iter
          (fun req ->
            let key = Option.get (Scs_shard.Kv.key_of_req req) in
            let owner =
              (S.R.route_bucket rt
                 ~bucket:(Scs_shard.Kv.bucket_of_key ~buckets:shard_buckets key))
                .S.R.owner
            in
            Obs.op_begin obs ~pid ~obj:owner ~label:(Printf.sprintf "shard%d" owner);
            (match S.apply h req with
            | S.Done _ -> Obs.op_end obs ~pid ~aborted:false
            | S.Gave_up ->
                Obs.abort obs ~pid;
                Obs.op_end obs ~pid ~aborted:true)
            [@warning "-4"])
          [
            Scs_shard.Kv.Put (pid mod keys, 100 + pid);
            Scs_shard.Kv.Get (pid mod keys);
            Scs_shard.Kv.Put ((pid + 1) mod keys, 200 + pid);
          ])
  done

let aggregate ~workload ~backend ~n ~runs ~wall (obs : Obs.t) =
  let ops = Obs.op_metrics obs in
  if ops = [] then invalid_arg "Obs_run.measure: batch completed zero operations";
  let steps =
    Stats.summarize_ints (Array.of_list (List.map (fun m -> m.Obs.om_steps) ops))
  in
  let step_cont =
    Stats.summarize_ints
      (Array.of_list (List.map (fun m -> m.Obs.om_step_contention) ops))
  in
  {
    workload;
    backend = Scs_prims.Backend.name backend;
    n;
    runs;
    ops;
    steps;
    step_cont;
    max_interval_contention = Obs.max_interval_contention obs;
    aborts = Obs.total_aborts obs;
    handoffs = Obs.total_handoffs obs;
    crashes = List.length (Obs.crashes obs);
    schedules_per_sec = (if wall > 0.0 then float_of_int runs /. wall else 0.0);
    objects = Obs.objects obs;
  }

(* One run's setup on an empty [sim] (whose sink is [obs]): build the
   target's shared objects, spawn one bracketed operation script per
   pid, then consume the run's rng after its crash draws. Tas and Cons
   targets use the builders and obs brackets of [Tas_run.one_shot] /
   [Cons_run.run] but none of their tracing scaffolding: the batch
   aggregate only reads the sink. They also derive a run seed from the
   rng (Tournament's per-pid coins are split from it) ahead of the
   policy stream. Returns the policy's rng. *)
let install ~backend ~obs ~target ~n sim rng =
  let module P = (val Scs_prims.Backend.sim_prims backend sim) in
  let derived reseed =
    let rng2 = Rng.create (Rng.int rng 0x3FFFFFFF) in
    reseed rng2;
    Rng.split rng2
  in
  match target with
  | A1 ->
      let module M = Scs_tas.A1.Make (P) in
      let a1 = M.create ~name:"a1" () in
      for pid = 0 to n - 1 do
        Sim.spawn sim pid (fun () ->
            Obs.op_begin obs ~pid ~obj:0 ~label:"a1";
            let outcome = M.apply a1 ~pid None in
            let aborted = match outcome with Outcome.Abort _ -> true | _ -> false in
            if aborted then Obs.abort obs ~pid;
            Obs.op_end obs ~pid ~aborted)
      done;
      rng
  | Tas algo ->
      let t = Tas_run.build ~n ~algo (module P) in
      for pid = 0 to n - 1 do
        Sim.spawn sim pid (fun () ->
            Obs.op_begin obs ~pid ~obj:0 ~label:"tas";
            ignore (Tas_run.test_and_set ~obs t ~pid);
            Obs.op_end obs ~pid ~aborted:false)
      done;
      derived (Tas_run.reseed_coins t)
  | Shard ->
      install_shard ~backend ~obs ~n sim;
      rng
  | Cons algo ->
      let inst : int Scs_consensus.Consensus_intf.t =
        Cons_run.make_instance ~algo ~n (module P)
      in
      for pid = 0 to n - 1 do
        Sim.spawn sim pid (fun () -> ignore (Cons_run.propose ~obs ~algo inst ~pid (100 + pid)))
      done;
      derived ignore

(* One stream's share of a batch: a single simulator, rewound with
   [Sim.clear] and installed again before each run after the first. *)
let run_stream ~backend ~target ~n ~policy ~crash_prob ~obs ~prng ~runs =
  let sim = Sim.create ~obs ~n () in
  for i = 1 to runs do
    let rng = Rng.split prng in
    let crashes = Fuzz.gen_crash_events ~prob:crash_prob ~recover:false rng n 15 in
    if i > 1 then Sim.clear sim;
    let pol_rng = install ~backend ~obs ~target ~n sim rng in
    (* consensus targets draw crashes but never inject them *)
    let crashes = match target with Cons _ -> [] | _ -> crashes in
    try Sim.run ~crashes sim (policy pol_rng) with Sim.Livelock _ -> ()
  done;
  runs

let measure ?(runs = 200) ?(seed = 42) ?(backend = Scs_prims.Backend.default)
    ?(policy = Policy.random) ?(crash_prob = 0.0) ?(gen_domains = 1) target ~n =
  let gen_domains = max 1 gen_domains in
  (* The batch sink's event ring is never replayed (the aggregate reads
     counters, census and op metrics only), so the batch skips ring
     recording entirely. Stream 0 feeds it directly. *)
  let obs = Obs.create ~record_ring:false ~n () in
  let sinks =
    Array.init gen_domains (fun d ->
        if d = 0 then obs
        else Obs.create ~ring_capacity:(Obs.ring_capacity obs) ~record_ring:false ~n ())
  in
  let t0 = Unix.gettimeofday () in
  let completed =
    Streams.run ~streams:gen_domains ~runs (fun d ~lo ~hi ->
        run_stream ~backend ~target ~n ~policy ~crash_prob ~obs:sinks.(d)
          ~prng:(Rng.create (seed + (0x51ED270B * d)))
          ~runs:(hi - lo))
  in
  for d = 1 to gen_domains - 1 do
    Obs.merge_into ~into:obs sinks.(d)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  aggregate ~workload:(target_name target) ~backend ~n
    ~runs:(Array.fold_left ( + ) 0 completed)
    ~wall obs

let solo ?(backend = Scs_prims.Backend.default) target ~n =
  let obs = Obs.create ~n () in
  let t0 = Unix.gettimeofday () in
  let sim = Sim.create ~obs ~n () in
  ignore (install ~backend ~obs ~target ~n sim (Rng.create 1));
  Sim.run sim (Policy.solo 0);
  let wall = Unix.gettimeofday () -. t0 in
  let agg = aggregate ~workload:(target_name target) ~backend ~n ~runs:1 ~wall obs in
  (* keep only p0's first operation: the uncontended-cost sample *)
  match List.find_opt (fun m -> m.Obs.om_pid = 0) agg.ops with
  | None -> agg
  | Some m ->
      {
        agg with
        ops = [ m ];
        steps = Stats.summarize_ints [| m.Obs.om_steps |];
        step_cont = Stats.summarize_ints [| m.Obs.om_step_contention |];
      }

let to_record (a : agg) =
  {
    Trajectory.workload = a.workload;
    sim_backend = Some a.backend;
    n = a.n;
    runs = a.runs;
    p50_steps = a.steps.Stats.median;
    p99_steps = a.steps.Stats.p99;
    max_interval_contention = a.max_interval_contention;
    schedules_per_sec = a.schedules_per_sec;
    native = None;
  }
