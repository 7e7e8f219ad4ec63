open Scs_util
open Scs_composable
open Scs_sim
open Scs_consensus

type algo = Split | Bakery | Cas | Chain3

let algo_name = function
  | Split -> "split-consensus"
  | Bakery -> "abortable-bakery"
  | Cas -> "cas"
  | Chain3 -> "split>bakery>cas"

type op = {
  pid : int;
  proposal : int;
  outcome : (int option, int option) Outcome.t;
  steps : int;
  rmws : int;
}

type result = {
  ops : op list;
  sim : Sim.t;
  schedule : int array;
  agreement : bool;
  validity : bool;
}

let make_instance (type a) ~algo ~n (module P : Scs_prims.Prims_intf.S)
    : a Consensus_intf.t =
  match algo with
  | Split ->
      let module SC = Split_consensus.Make (P) in
      SC.instance (SC.create ~name:"split" ())
  | Bakery ->
      let module AB = Abortable_bakery.Make (P) in
      AB.instance (AB.create ~name:"bakery" ~n ())
  | Cas ->
      let module CC = Cas_consensus.Make (P) in
      CC.instance (CC.create ~name:"cas" ())
  | Chain3 ->
      let module SC = Split_consensus.Make (P) in
      let module AB = Abortable_bakery.Make (P) in
      let module CC = Cas_consensus.Make (P) in
      let module CH = Chain.Make (P) in
      CH.make ~name:"chain"
        [
          SC.instance (SC.create ~name:"chain.split" ());
          AB.instance (AB.create ~name:"chain.bakery" ~n ());
          CC.instance (CC.create ~name:"chain.cas" ());
        ]

(* One obs bracket per propose; all processes hit the same consensus
   instance, so interval contention is measured against object 0
   exactly as Appendix A defines it. *)
let propose ~obs ~algo (inst : _ Consensus_intf.t) ~pid proposal =
  Scs_obs.Obs.op_begin obs ~pid ~obj:0 ~label:(algo_name algo);
  let outcome = inst.Consensus_intf.run ~pid ~old:None proposal in
  let aborted = match outcome with Outcome.Abort _ -> true | _ -> false in
  if aborted then Scs_obs.Obs.abort obs ~pid;
  (match outcome with
  | Outcome.Abort (Some _) ->
      (* an adopted switch value: what a chain would hand to the next
         stage *)
      Scs_obs.Obs.handoff obs ~pid ~label:"switch"
  | _ -> ());
  Scs_obs.Obs.op_end obs ~pid ~aborted;
  outcome

let run ?(seed = 42) ?(backend = Scs_prims.Backend.default) ?obs ~n ~algo ~policy () =
  let rng = Rng.create seed in
  let sim = Sim.create ?obs ~n () in
  let obs = Sim.obs sim in
  let module P = (val Scs_prims.Backend.sim_prims backend sim) in
  let inst : int Consensus_intf.t = make_instance ~algo ~n (module P) in
  let ops = ref [] in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let proposal = 100 + pid in
        let s0 = Sim.steps_of sim pid in
        let r0 = Sim.rmws_of sim pid in
        let outcome = propose ~obs ~algo inst ~pid proposal in
        ops :=
          {
            pid;
            proposal;
            outcome;
            steps = Sim.steps_of sim pid - s0;
            rmws = Sim.rmws_of sim pid - r0;
          }
          :: !ops)
  done;
  let buf = Vec.create () in
  Sim.run ~capture:buf sim (policy (Rng.split rng));
  let ops = List.rev !ops in
  let decisions =
    List.filter_map
      (fun o -> match o.outcome with Outcome.Commit (Some d) -> Some d | _ -> None)
      ops
  in
  let agreement =
    match decisions with [] -> true | d :: rest -> List.for_all (fun x -> x = d) rest
  in
  let proposals = List.map (fun o -> o.proposal) ops in
  let validity = List.for_all (fun d -> List.mem d proposals) decisions in
  { ops; sim; schedule = Vec.to_array buf; agreement; validity }

let solo_steps algo ~n =
  let r = run ~n ~algo ~policy:(fun _ -> Policy.solo 0) () in
  match r.ops with
  | [] -> 0
  | o :: _ -> o.steps
