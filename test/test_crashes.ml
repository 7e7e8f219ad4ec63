(* Failure injection across the stack: every safety property must survive
   crashes of arbitrary subsets of processes at arbitrary points (the
   model is wait-free: n-1 crash failures are legal). *)

open Scs_sim
open Scs_composable
open Scs_workload

let rng_crashes rng ~n ~max_crashes =
  let k = Scs_util.Rng.int rng (max_crashes + 1) in
  List.init k (fun _ -> (Scs_util.Rng.int rng n, 1 + Scs_util.Rng.int rng 15))

(* consensus: agreement + validity must hold among completed ops even when
   others crash mid-protocol *)
let consensus_crash ~algo ~runs () =
  (* crash sets derive from the suite seed: export the printed
     SCS_QCHECK_SEED to replay a failure *)
  let rng = Test_seed.rng 99 in
  for seed = 1 to runs do
    let n = 4 in
    let crashes = rng_crashes rng ~n ~max_crashes:2 in
    let sim = Sim.create ~n () in
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let inst : int Scs_consensus.Consensus_intf.t =
      match algo with
      | `Split ->
          let module SC = Scs_consensus.Split_consensus.Make (P) in
          SC.instance (SC.create ~name:"s" ())
      | `Bakery ->
          let module AB = Scs_consensus.Abortable_bakery.Make (P) in
          AB.instance (AB.create ~name:"b" ~n ())
      | `Chain ->
          let module SC = Scs_consensus.Split_consensus.Make (P) in
          let module CC = Scs_consensus.Cas_consensus.Make (P) in
          let module CH = Scs_consensus.Chain.Make (P) in
          CH.make ~name:"ch"
            [ SC.instance (SC.create ~name:"ch.s" ()); CC.instance (CC.create ~name:"ch.c" ()) ]
    in
    let outcomes = Array.make n None in
    for pid = 0 to n - 1 do
      Sim.spawn sim pid (fun () ->
          outcomes.(pid) <- Some (inst.Scs_consensus.Consensus_intf.run ~pid ~old:None (100 + pid)))
    done;
    Sim.run ~crashes:(Crash.of_pairs crashes) sim (Policy.random (Scs_util.Rng.create seed));
    let decisions =
      Array.to_list outcomes
      |> List.filter_map (function Some (Outcome.Commit (Some d)) -> Some d | _ -> None)
    in
    (match decisions with
    | [] -> ()
    | d :: rest ->
        if not (List.for_all (fun x -> x = d) rest) then
          Alcotest.failf "disagreement under crashes at seed %d crashes=%s%s" seed
            (String.concat ","
               (List.map (fun (p, k) -> Printf.sprintf "%d@%d" p k) crashes))
            Test_seed.label;
        if d < 100 || d >= 100 + n then
          Alcotest.failf "invalid decision at seed %d%s" seed Test_seed.label)
  done

let test_split_crashes () = consensus_crash ~algo:`Split ~runs:150 ()
let test_bakery_crashes () = consensus_crash ~algo:`Bakery ~runs:150 ()
let test_chain_crashes () = consensus_crash ~algo:`Chain ~runs:150 ()

(* the chain stays wait-free for survivors even when others crash *)
let test_chain_survivor_progress () =
  for seed = 1 to 60 do
    let n = 3 in
    let sim = Sim.create ~n () in
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module SC = Scs_consensus.Split_consensus.Make (P) in
    let module CC = Scs_consensus.Cas_consensus.Make (P) in
    let module CH = Scs_consensus.Chain.Make (P) in
    let inst =
      CH.make ~name:"ch"
        [ SC.instance (SC.create ~name:"s" ()); CC.instance (CC.create ~name:"c" ()) ]
    in
    let done_ = Array.make n false in
    for pid = 0 to n - 1 do
      Sim.spawn sim pid (fun () ->
          (match inst.Scs_consensus.Consensus_intf.run ~pid ~old:None pid with
          | Outcome.Commit (Some _) -> ()
          | Outcome.Commit None | Outcome.Abort _ ->
              Alcotest.failf "chain did not decide at seed %d" seed);
          done_.(pid) <- true)
    done;
    (* crash p0 early; the others must finish *)
    Sim.run ~crashes:[ Crash.terminal ~pid:0 ~at:2 ] sim
      (Policy.random (Scs_util.Rng.create seed));
    Alcotest.(check bool) "survivors decided" true (done_.(1) && done_.(2))
  done

(* tournament TAS: a crashed competitor leaves at most a pending win *)
let test_tournament_crashes () =
  for seed = 1 to 100 do
    let r =
      Tas_run.one_shot ~seed ~n:4 ~algo:Tas_run.Tournament
        ~crashes:[ (seed mod 4, 1 + (seed mod 9)) ]
        ~policy:Policy.random ()
    in
    let ops = Scs_history.Trace.operations r.Tas_run.outer in
    if not (Scs_history.Tas_lin.check_one_shot ops) then
      Alcotest.failf "tournament with crash not linearizable at seed %d" seed;
    if List.length (Tas_run.winners r) > 1 then
      Alcotest.failf "two winners under crash at seed %d" seed
  done

(* snapshot: scans remain mutually comparable when an updater crashes *)
let test_snapshot_crashes () =
  for seed = 1 to 60 do
    let n = 3 in
    let sim = Sim.create ~n () in
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module S = Scs_universal.Snapshot.Make (P) in
    let s = S.create ~name:"s" ~n ~init:0 in
    let scans = ref [] in
    for pid = 0 to n - 1 do
      Sim.spawn sim pid (fun () ->
          for k = 1 to 3 do
            S.update s ~pid k;
            scans := S.scan s ~pid :: !scans
          done)
    done;
    Sim.run
      ~crashes:[ Crash.terminal ~pid:(seed mod n) ~at:(1 + (seed mod 7)) ]
      sim
      (Policy.random (Scs_util.Rng.create seed));
    let le a b = Array.for_all2 (fun x y -> x <= y) a b in
    if
      not
        (List.for_all (fun a -> List.for_all (fun b -> le a b || le b a) !scans) !scans)
    then Alcotest.failf "incomparable scans under crash at seed %d" seed
  done

(* universal construction: survivors finish and histories stay consistent *)
let test_uc_crashes () =
  for seed = 1 to 40 do
    let r =
      Uc_run.run ~seed ~n:3 ~ops_per_proc:2
        ~crashes:[ (seed mod 3, 1 + (seed mod 19)) ]
        ~stages:[ Uc_run.S_split; Uc_run.S_cas ]
        ~policy:Policy.random
        ~gen_payload:(fun ~pid:_ ~k:_ -> Scs_spec.Objects.Fai_inc)
        ()
    in
    (* survivors' commit histories must stay prefix-consistent and replay *)
    match Uc_run.check_responses Scs_spec.Objects.fetch_and_increment r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "uc inconsistent under crash at seed %d: %s" seed e
  done

let tests =
  [
    Alcotest.test_case "split consensus under crashes" `Quick test_split_crashes;
    Alcotest.test_case "bakery consensus under crashes" `Quick test_bakery_crashes;
    Alcotest.test_case "chain consensus under crashes" `Quick test_chain_crashes;
    Alcotest.test_case "chain survivor progress" `Quick test_chain_survivor_progress;
    Alcotest.test_case "tournament TAS under crashes" `Quick test_tournament_crashes;
    Alcotest.test_case "snapshot under crashes" `Quick test_snapshot_crashes;
    Alcotest.test_case "universal construction under crashes" `Quick test_uc_crashes;
  ]
