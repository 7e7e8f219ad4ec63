open Scs_util
open Scs_spec
open Scs_history
open Scs_composable
open Scs_sim

type algo = Composed | Strict | Solo_fast | Hardware | Tournament

let algo_name = function
  | Composed -> "speculative"
  | Strict -> "speculative-strict"
  | Solo_fast -> "solo-fast"
  | Hardware -> "hardware"
  | Tournament -> "tournament"

type op_record = {
  pid : int;
  round : int;
  resp : Objects.tas_resp;
  stage : Scs_tas.One_shot.stage option;
  steps : int;
  rmws : int;
  raws : int;
  invoke_ts : int;
  resp_ts : int;
}

type result = {
  ops : op_record list;
  outer : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
  a1 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
  a2 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
  mem : Mem_event.t array;
  sim : Sim.t;
  schedule : int array;
  registers : int;
  rmw_objects : int;
  round_of_req : (int, int) Hashtbl.t;
}

(* Shared runner scaffolding: build the simulator, traces and accounting,
   then let [body] spawn the per-process code given a per-operation
   wrapper that records an [op_record] around each attempt. *)
type recorder = {
  rec_outer : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.t;
  rec_a1 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.t;
  rec_a2 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.t;
  gen : Request.Gen.t;
  round_of_req : (int, int) Hashtbl.t;
  mutable recs : op_record list;
}

let make_recorder sim =
  let clock () = Sim.clock sim in
  {
    rec_outer = Trace.create ~clock ();
    rec_a1 = Trace.create ~clock ();
    rec_a2 = Trace.create ~clock ();
    gen = Request.Gen.create ();
    round_of_req = Hashtbl.create 64;
    recs = [];
  }

(* Record one operation: [f req] performs the algorithm and returns
   (resp, stage, round); trace events are emitted by [f] itself. The
   simulator's observability sink (a no-op unless the caller passed
   [~obs]) gets a begin/end bracket per operation, which is what feeds
   the per-operation step and contention estimators. *)
let record_op sim recorder ~pid f =
  let req = Request.Gen.fresh recorder.gen Objects.Test_and_set in
  let obs = Sim.obs sim in
  let s0 = Sim.steps_of sim pid in
  let r0 = Sim.rmws_of sim pid in
  let f0 = Sim.raw_fences_of sim pid in
  let t0 = Sim.clock sim in
  Scs_obs.Obs.op_begin obs ~pid ~obj:0 ~label:"tas";
  let resp, stage, round = f req in
  Scs_obs.Obs.op_end obs ~pid ~aborted:false;
  Hashtbl.replace recorder.round_of_req (Request.id req) round;
  let op =
    {
      pid;
      round;
      resp;
      stage;
      steps = Sim.steps_of sim pid - s0;
      rmws = Sim.rmws_of sim pid - r0;
      raws = Sim.raw_fences_of sim pid - f0;
      invoke_ts = t0;
      resp_ts = Sim.clock sim;
    }
  in
  recorder.recs <- op :: recorder.recs;
  resp

let finish sim recorder ~schedule =
  {
    ops = List.rev recorder.recs;
    outer = Trace.events recorder.rec_outer;
    a1 = Trace.events recorder.rec_a1;
    a2 = Trace.events recorder.rec_a2;
    mem = Sim.trace_arr sim;
    sim;
    schedule;
    registers = Sim.objects_allocated sim;
    rmw_objects = Sim.rmw_objects_allocated sim;
    round_of_req = recorder.round_of_req;
  }

(* The captured schedule holds exactly the executed turns, and crash
   points key on [Sim.steps_of], which evolves identically on replay of
   the same turn prefix — so [Fuzz.replay] reproduces the run. *)
let run_policy ?(crashes = []) sim policy rng =
  let buf = Vec.create () in
  Sim.run ~capture:buf ~crashes:(Crash.of_pairs crashes) sim (policy rng);
  Vec.to_array buf

(* ---- the one TAS builder ----------------------------------------------- *)

type tas = {
  fast : pid:int -> (Objects.tas_resp, Tas_switch.t) Outcome.t;
  fallback : (pid:int -> Tas_switch.t -> Objects.tas_resp) option;
  handoff : string;
  coins : Rng.t array;
}

let build ~n ~algo (module P : Scs_prims.Prims_intf.S) =
  let composed ~handoff fast fallback =
    let fallback ~pid v =
      match fallback ~pid (Some v) with Outcome.Commit r -> r | Outcome.Abort _ -> assert false
    in
    { fast; fallback = Some fallback; handoff; coins = [||] }
  in
  let single op =
    { fast = (fun ~pid -> Outcome.Commit (op ~pid)); fallback = None; handoff = ""; coins = [||] }
  in
  match algo with
  | Composed | Strict ->
      let module OS = Scs_tas.One_shot.Make (P) in
      let os = OS.create ~strict:(algo = Strict) ~name:"tas" () in
      composed ~handoff:"a1->a2"
        (fun ~pid -> OS.A1m.apply (OS.a1 os) ~pid None)
        (OS.A2m.apply (OS.a2 os))
  | Solo_fast ->
      let module SF = Scs_tas.Solo_fast.Make (P) in
      let sf = SF.create ~name:"sftas" () in
      composed ~handoff:"sf->fallback" (fun ~pid -> SF.apply_fast sf ~pid None)
        (SF.apply_fallback sf)
  | Hardware ->
      let module B = Scs_tas.Baselines.Make (P) in
      single (B.Hardware.test_and_set (B.Hardware.create ~name:"hw" ()))
  | Tournament ->
      let module B = Scs_tas.Baselines.Make (P) in
      let tn = B.Tournament.create ~name:"agtv" ~n () in
      let coins = Array.init n (fun i -> Rng.create (i + 1)) in
      { (single (fun ~pid -> B.Tournament.test_and_set tn ~pid ~rng:coins.(pid))) with coins }

let reseed_coins t rng = Array.iteri (fun i _ -> t.coins.(i) <- Rng.split rng) t.coins

let test_and_set ?(obs = Scs_obs.Obs.null) ?(on_switch = ignore) t ~pid =
  match t.fast ~pid with
  | Outcome.Commit r -> (r, if Option.is_some t.fallback then Some Scs_tas.One_shot.Fast else None)
  | Outcome.Abort v ->
      on_switch v;
      Scs_obs.Obs.abort obs ~pid;
      Scs_obs.Obs.handoff obs ~pid ~label:t.handoff;
      (Option.get t.fallback ~pid v, Some Scs_tas.One_shot.Fallback)

type tas_trace = (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.t

let spawn_traced ~backend ~n ~algo sim =
  let module P = (val Scs_prims.Backend.sim_prims backend sim) in
  let t = build ~n ~algo (module P) in
  let tr : tas_trace = Trace.create ~clock:(fun () -> Sim.clock sim) () in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let req = Request.make pid Objects.Test_and_set in
        Trace.invoke tr ~pid req;
        let r, _ = test_and_set t ~pid in
        Trace.commit tr ~pid req r)
  done;
  tr

(* ---- traced runs -------------------------------------------------------- *)

let one_shot ?(seed = 42) ?(backend = Scs_prims.Backend.default) ?(trace_mem = true)
    ?(crashes = []) ?obs ~n ~algo ~policy () =
  let rng = Rng.create seed in
  let sim = Sim.create ?obs ~n () in
  Sim.set_trace sim trace_mem;
  let obs = Sim.obs sim in
  let module P = (val Scs_prims.Backend.sim_prims backend sim) in
  let tr = make_recorder sim in
  let t = build ~n ~algo (module P) in
  (* the tournament's coins come from the run rng, ahead of the policy's *)
  reseed_coins t rng;
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        ignore
          (record_op sim tr ~pid (fun req ->
               Trace.invoke tr.rec_outer ~pid req;
               if Option.is_some t.fallback then Trace.invoke tr.rec_a1 ~pid req;
               let on_switch v =
                 Trace.abort tr.rec_a1 ~pid req v;
                 Trace.init tr.rec_a2 ~pid req v
               in
               let r, stage = test_and_set ~obs ~on_switch t ~pid in
               (match stage with
               | Some Scs_tas.One_shot.Fast -> Trace.commit tr.rec_a1 ~pid req r
               | Some Scs_tas.One_shot.Fallback -> Trace.commit tr.rec_a2 ~pid req r
               | None -> ());
               Trace.commit tr.rec_outer ~pid req r;
               (r, stage, 0))))
  done;
  let schedule = run_policy ~crashes sim policy (Rng.split rng) in
  finish sim tr ~schedule

let long_lived ?(seed = 42) ?(backend = Scs_prims.Backend.default) ?(trace_mem = true)
    ?(crashes = []) ?(strict = false) ?obs ~n ~ops_per_proc ~policy () =
  let rng = Rng.create seed in
  let sim = Sim.create ~max_steps:10_000_000 ?obs ~n () in
  Sim.set_trace sim trace_mem;
  let module P = (val Scs_prims.Backend.sim_prims backend sim) in
  let module LL = Scs_tas.Long_lived.Make (P) in
  let recorder = make_recorder sim in
  let ll = LL.create ~strict ~name:"lltas" ~rounds:((n * ops_per_proc) + 1) () in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let h = LL.handle ll ~pid in
        for _ = 1 to ops_per_proc do
          let resp =
            record_op sim recorder ~pid (fun req ->
                Trace.invoke recorder.rec_outer ~pid req;
                let resp, stage, round = LL.test_and_set_info h in
                (* A Fallback response means the speculative A1 aborted
                   and its switch value crossed into A2 this round. *)
                if stage = Scs_tas.One_shot.Fallback then begin
                  Scs_obs.Obs.abort (Sim.obs sim) ~pid;
                  Scs_obs.Obs.handoff (Sim.obs sim) ~pid ~label:"a1->a2"
                end;
                Trace.commit recorder.rec_outer ~pid req resp;
                (resp, Some stage, round))
          in
          if resp = Objects.Winner then LL.reset h
        done)
  done;
  let schedule = run_policy ~crashes sim policy (Rng.split rng) in
  finish sim recorder ~schedule

(* ---- exhaustive one-shot exploration ---------------------------------- *)

(* The per-domain "current trace" slot: [Explore.exhaustive] interleaves
   setup / run / check sequentially within each worker domain, so
   domain-local state is exactly the right scope for handing the trace
   recorded during the last replay to the check that follows it. *)
let explore_slot : tas_trace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let explore_one_shot ?max_schedules ?max_depth ?(por = false) ?(domains = 1)
    ?(backend = Scs_prims.Backend.default) ~n ~algo () =
  let bad = Atomic.make 0 in
  let setup sim = Domain.DLS.set explore_slot (Some (spawn_traced ~backend ~n ~algo sim)) in
  let check _sim _sched =
    let tr = Option.get (Domain.DLS.get explore_slot) in
    if not (Tas_lin.check_one_shot (Trace.operations (Trace.events tr))) then
      Atomic.incr bad
  in
  let outcome = Explore.exhaustive ?max_schedules ?max_depth ~por ~domains ~n ~setup ~check () in
  (outcome, Atomic.get bad)

let rounds_of result =
  let ops = Trace.operations result.outer in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (o : _ Trace.operation) ->
      let round =
        match Hashtbl.find_opt result.round_of_req (Request.id o.Trace.op_req) with
        | Some r -> r
        | None -> 0
      in
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl round) in
      Hashtbl.replace tbl round (o :: cur))
    ops;
  Hashtbl.fold (fun _ ops acc -> List.rev ops :: acc) tbl []

let winners result = List.filter (fun o -> o.resp = Objects.Winner) result.ops

let step_contended_ops result =
  List.map
    (fun op ->
      let iv = { Detect.pid = op.pid; start_ts = op.invoke_ts; end_ts = op.resp_ts } in
      (op, Detect.step_contended result.mem iv))
    result.ops
