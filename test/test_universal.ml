(* Verification of the composable universal construction (Section 4):
   - the AADGMS snapshot substrate (validity + total order of scans);
   - single-instance universal construction over each consensus algorithm;
   - Abstract properties (Definition 1) on recorded stage traces;
   - the composition (Proposition 1): split → bakery → CAS chain is
     wait-free and linearizable for fetch&inc and queue objects;
   - the state-transfer cost (abort histories grow with committed work);
   - Typed's cached responses against full-history replay, and the
     per-slot object names the arena builds. *)

open Scs_spec
open Scs_history
open Scs_sim
open Scs_workload

(* ---- snapshot -------------------------------------------------------- *)

let test_snapshot_solo () =
  let sim = Sim.create ~n:1 () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module S = Scs_universal.Snapshot.Make (P) in
  let s = S.create ~name:"s" ~n:2 ~init:0 in
  let views = ref [] in
  Sim.spawn sim 0 (fun () ->
      views := S.scan s ~pid:0 :: !views;
      S.update s ~pid:0 5;
      views := S.scan s ~pid:0 :: !views);
  Sim.run sim (Policy.round_robin ());
  match List.rev !views with
  | [ v1; v2 ] ->
      Alcotest.(check (array int)) "initial" [| 0; 0 |] v1;
      Alcotest.(check (array int)) "after update" [| 5; 0 |] v2
  | _ -> Alcotest.fail "expected two views"

(* every pair of scans must be pointwise comparable when components are
   monotone counters: that is exactly snapshot linearizability here *)
let scans_comparable scans =
  let le a b = Array.for_all2 (fun x y -> x <= y) a b in
  List.for_all
    (fun a -> List.for_all (fun b -> le a b || le b a) scans)
    scans

let test_snapshot_random_linearizable () =
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
    Sim.run sim (Policy.random (Scs_util.Rng.create seed));
    if not (scans_comparable !scans) then
      Alcotest.failf "incomparable scans at seed %d" seed;
    (* validity: own component reflects the last update *)
    ()
  done

let test_snapshot_update_embeds_view () =
  (* a scanner that observes a component move twice borrows a valid view;
     exercised under heavy interleaving *)
  for seed = 1 to 40 do
    let n = 2 in
    let sim = Sim.create ~n () in
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module S = Scs_universal.Snapshot.Make (P) in
    let s = S.create ~name:"s" ~n ~init:0 in
    let scans = ref [] in
    Sim.spawn sim 0 (fun () ->
        for k = 1 to 6 do
          S.update s ~pid:0 k
        done);
    Sim.spawn sim 1 (fun () ->
        for _ = 1 to 4 do
          scans := S.scan s ~pid:1 :: !scans
        done);
    Sim.run sim (Policy.random (Scs_util.Rng.create seed));
    (* scans of p1 must be monotone in p0's component *)
    let rec monotone = function
      | a :: (b :: _ as rest) ->
          (* !scans is newest-first *)
          b.(0) <= a.(0) && monotone rest
      | _ -> true
    in
    if not (monotone !scans) then Alcotest.failf "non-monotone scans at seed %d" seed
  done

let test_snapshot_wait_free () =
  (* a scanner completes even while the other component updates forever
     within the run: bounded double collects via borrowed views *)
  let n = 2 in
  let sim = Sim.create ~max_steps:200_000 ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module S = Scs_universal.Snapshot.Make (P) in
  let s = S.create ~name:"s" ~n ~init:0 in
  let scan_done = ref false in
  Sim.spawn sim 0 (fun () ->
      for k = 1 to 200 do
        S.update s ~pid:0 k
      done);
  Sim.spawn sim 1 (fun () ->
      ignore (S.scan s ~pid:1);
      scan_done := true);
  (* adversarial: give the updater 3 turns per scanner turn *)
  let count = ref 0 in
  Sim.run sim (fun sm ->
      incr count;
      let want = if !count mod 4 = 0 then 1 else 0 in
      if Sim.is_runnable sm want then want
      else if Sim.is_runnable sm (1 - want) then 1 - want
      else -1);
  Alcotest.(check bool) "scan completed" true !scan_done

(* ---- universal construction: single instance -------------------------- *)

let fai_payload ~pid:_ ~k:_ = Objects.Fai_inc

let test_uc_cas_fai () =
  (* wait-free single stage: every process gets a distinct counter value *)
  for seed = 1 to 30 do
    let r =
      Uc_run.run ~seed ~n:4 ~ops_per_proc:3 ~stages:[ Uc_run.S_cas ] ~policy:Policy.random
        ~gen_payload:fai_payload ()
    in
    Alcotest.(check int) "all commits" 12 (List.length r.Uc_run.commit_hists);
    (match Uc_run.check_responses Objects.fetch_and_increment r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e);
    (* Abstract properties, strict validity *)
    Array.iter
      (fun evs ->
        match Abstract_check.check evs with
        | Ok () -> ()
        | Error e -> Alcotest.failf "abstract violation at seed %d: %s" seed e)
      r.Uc_run.stage_events
  done

let test_uc_split_solo () =
  let r =
    Uc_run.run ~n:3 ~ops_per_proc:4 ~stages:[ Uc_run.S_split; Uc_run.S_cas ]
      ~policy:(fun _ -> Policy.solo 0) ~gen_payload:fai_payload ()
  in
  (* the solo process commits everything on the cheap stage *)
  Alcotest.(check int) "4 commits" 4 (List.length r.Uc_run.commit_hists);
  Alcotest.(check int) "stays on stage 0" 0 r.Uc_run.final_stages.(0);
  Alcotest.(check (list int)) "no switches" []
    (List.map snd r.Uc_run.switch_lens)

let test_uc_split_sequential () =
  let r =
    Uc_run.run ~n:4 ~ops_per_proc:3 ~stages:[ Uc_run.S_split; Uc_run.S_cas ]
      ~policy:(fun _ -> Policy.sequential ()) ~gen_payload:fai_payload ()
  in
  Alcotest.(check int) "all commit" 12 (List.length r.Uc_run.commit_hists);
  match Uc_run.check_responses Objects.fetch_and_increment r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_uc_composed_random () =
  for seed = 1 to 25 do
    let r =
      Uc_run.run ~seed ~n:3 ~ops_per_proc:3
        ~stages:[ Uc_run.S_split; Uc_run.S_bakery; Uc_run.S_cas ]
        ~policy:Policy.random ~gen_payload:fai_payload ()
    in
    Alcotest.(check int) "wait-free: all commit" 9 (List.length r.Uc_run.commit_hists);
    (match Uc_run.check_responses Objects.fetch_and_increment r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e);
    Array.iter
      (fun evs ->
        match Abstract_check.check evs with
        | Ok () -> ()
        | Error e -> Alcotest.failf "abstract violation at seed %d: %s" seed e)
      r.Uc_run.stage_events
  done

(* Proposition 2, executable: a wait-free Abstract implementation of a
   non-trivial type solves consensus — decide on the payload of the first
   request in one's commit history (Commit Order makes it unique). *)
let test_prop2_abstract_solves_consensus () =
  for seed = 1 to 40 do
    let n = 4 in
    let r =
      Uc_run.run ~seed ~n ~ops_per_proc:1
        ~stages:[ Uc_run.S_cas ]
        ~policy:Policy.random
        ~gen_payload:(fun ~pid ~k:_ -> Objects.Enqueue (1000 + pid))
        ()
    in
    let decisions =
      List.filter_map
        (fun (_, hist) ->
          match hist with
          | first :: _ -> (
              match Request.payload first with Objects.Enqueue v -> Some v | _ -> None)
          | [] -> None)
        r.Uc_run.commit_hists
    in
    (match decisions with
    | [] -> Alcotest.failf "no decisions at seed %d" seed
    | d :: rest ->
        if not (List.for_all (fun x -> x = d) rest) then
          Alcotest.failf "Prop 2 reduction disagreed at seed %d" seed;
        if d < 1000 || d >= 1000 + n then Alcotest.failf "invalid at seed %d" seed)
  done

let test_uc_state_transfer_grows () =
  (* T5's mechanism: the more requests committed before contention forces a
     switch, the longer the transferred history. Mostly-sequential sticky
     schedules let work accumulate before the occasional collision. *)
  let switch_lens ~ops_per_proc =
    let lens = ref [] in
    for seed = 1 to 30 do
      let r =
        Uc_run.run ~seed ~n:3 ~ops_per_proc
          ~stages:[ Uc_run.S_split; Uc_run.S_cas ]
          ~policy:(fun rng -> Policy.sticky rng ~switch_prob:0.05)
          ~gen_payload:fai_payload ()
      in
      lens := List.map snd r.Uc_run.switch_lens @ !lens
    done;
    !lens
  in
  let mean l =
    if l = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let small = switch_lens ~ops_per_proc:1 in
  let large = switch_lens ~ops_per_proc:8 in
  Alcotest.(check bool) "switches happen" true (small <> []);
  Alcotest.(check bool) "longer runs transfer more state (mean)" true
    (mean large > mean small);
  Alcotest.(check bool) "longer runs transfer more state (max)" true
    (List.fold_left max 0 large > List.fold_left max 0 small)

(* ---- typed objects over the composed chain ---------------------------- *)

let run_typed_queue ~seed ~policy =
  let n = 3 in
  let sim = Sim.create ~max_steps:20_000_000 ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let module CC = Scs_consensus.Cas_consensus.Make (P) in
  let stages =
    [
      (fun ~name ~slot:_ -> SC.instance (SC.create ~name ()));
      (fun ~name ~slot:_ -> CC.instance (CC.create ~name ()));
    ]
  in
  let chain = UO.create ~name:"q" ~n ~max_requests:64 ~stages () in
  let obj = UO.Typed.create Objects.queue chain in
  let gen = Request.Gen.create () in
  let tr : (Objects.queue_req, Objects.queue_resp, unit) Trace.t =
    Trace.create ~clock:(fun () -> Sim.clock sim) ()
  in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let h = UO.Typed.handle obj ~pid in
        for k = 1 to 3 do
          let payload =
            if k mod 2 = 1 then Objects.Enqueue ((10 * pid) + k) else Objects.Dequeue
          in
          let req = Request.Gen.fresh gen payload in
          Trace.invoke tr ~pid req;
          let resp = UO.Typed.apply h req in
          Trace.commit tr ~pid req resp
        done)
  done;
  Sim.run sim (policy (Scs_util.Rng.create seed));
  Trace.events tr

let test_typed_queue_linearizable () =
  for seed = 1 to 15 do
    let evs = run_typed_queue ~seed ~policy:Policy.random in
    if not (Linearize.check_events Objects.queue evs) then
      Alcotest.failf "queue not linearizable at seed %d" seed
  done

let test_typed_queue_sequential_fifo () =
  let evs = run_typed_queue ~seed:1 ~policy:(fun _ -> Policy.sequential ()) in
  Alcotest.(check bool) "sequential queue linearizable" true
    (Linearize.check_events Objects.queue evs)

(* ---- incremental responses vs full replay ------------------------------ *)

(* One run of split > bakery > cas at [n]. Each process applies [ops]
   requests, then re-applies its last one (the [Service.recover] path).
   [typed] answers through [Typed.apply]'s response cache; otherwise each
   answer is [β(h, m)] over the full commit history. Neither takes a
   simulated step, so under one policy and seed both runs follow the
   same schedule. Also returns how many requests switched stage after
   their handle had already answered one: those switches rebuild a
   non-empty cache. *)
let diff_run ~n ~typed ~policy spec payload =
  let ops = 5 in
  let sim = Sim.create ~max_steps:20_000_000 ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let module AB = Scs_consensus.Abortable_bakery.Make (P) in
  let module CC = Scs_consensus.Cas_consensus.Make (P) in
  let stages =
    [
      (fun ~name ~slot:_ -> SC.instance (SC.create ~name ()));
      (fun ~name ~slot:_ -> AB.instance (AB.create ~name ~n ()));
      (fun ~name ~slot:_ -> CC.instance (CC.create ~name ()));
    ]
  in
  let obj = UO.Typed.create spec (UO.create ~name:"d" ~n ~max_requests:64 ~stages ()) in
  let out = Array.make n [] and late_switches = ref 0 in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let th = UO.Typed.handle obj ~pid in
        let ph = UO.Typed.phandle th in
        let apply req =
          let s0 = UO.stage_of ph in
          let r =
            if typed then UO.Typed.apply th req
            else
              match History.beta_at spec (UO.invoke ph req) (Request.id req) with
              | Some r -> r
              | None -> Alcotest.fail "reference: committed history misses the request"
          in
          if out.(pid) <> [] && UO.stage_of ph > s0 then incr late_switches;
          out.(pid) <- r :: out.(pid)
        in
        let reqs = List.init ops (fun k -> Request.make (((k + 1) * n) + pid) (payload pid k)) in
        List.iter apply reqs;
        apply (List.nth reqs (ops - 1)))
  done;
  Sim.run sim policy;
  (Array.map List.rev out, !late_switches)

(* Uniform interleaving switches stage inside the first requests; the
   sticky and solo-prefix policies let a handle answer some requests on
   the split stage before contention forces a switch. *)
let diff_policies =
  [
    ("random", fun seed -> Policy.random (Scs_util.Rng.create seed));
    ("sticky", fun seed -> Policy.sticky (Scs_util.Rng.create seed) ~switch_prob:0.02);
    ( "solo-prefix",
      fun seed ->
        let rng = Scs_util.Rng.create seed in
        Policy.scripted_then (Array.make (40 + Scs_util.Rng.int rng 200) 0) (Policy.random rng) );
  ]

let show_resps spec runs =
  String.concat " | "
    (Array.to_list (Array.map (fun l -> String.concat "," (List.map spec.Spec.show_resp l)) runs))

(* true iff the two runs agree op by op and every re-applied request
   answered as before; adds the cached run's late switches *)
let diff_case ~n (spec : (_, _, _) Spec.t) payload ~switches seed =
  List.for_all
    (fun (pname, policy) ->
      let cached, sw = diff_run ~n ~typed:true ~policy:(policy seed) spec payload in
      let replayed, _ = diff_run ~n ~typed:false ~policy:(policy seed) spec payload in
      switches := !switches + sw;
      let again_same rs =
        match List.rev rs with again :: last :: _ -> spec.Spec.equal_resp again last | _ -> false
      in
      let ok =
        Array.for_all2 (List.equal spec.Spec.equal_resp) cached replayed
        && Array.for_all again_same cached
      in
      if not ok then
        QCheck.Test.fail_reportf "%s n=%d seed %d %s: cached [%s] vs replayed [%s]%s"
          spec.Spec.name n seed pname (show_resps spec cached) (show_resps spec replayed)
          Test_seed.label;
      ok)
    diff_policies

let queue_payload pid k = if k mod 2 = 0 then Objects.Enqueue ((10 * pid) + k) else Objects.Dequeue

let kv_payload pid k =
  let key = (pid + k) mod 3 in
  if (pid + k) mod 3 = 1 then Scs_shard.Kv.Get key else Scs_shard.Kv.Put (key, (10 * pid) + k)

(* Seeds are not shrunk: a smaller list can only lose the switches the
   property requires. Only the n = 3 runs switch; the n = 1 runs take
   the alone path (no announcement, no helping choice). *)
let prop_typed_matches_replay =
  QCheck.Test.make ~count:25 ~name:"Typed.apply matches full-history replay (queue, kv)"
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       QCheck.Gen.(list_repeat 4 (int_bound 1_000_000)))
    (fun seeds ->
      let switches = ref 0 in
      let ok =
        List.for_all
          (fun seed ->
            List.for_all
              (fun n ->
                diff_case ~n Objects.queue queue_payload ~switches seed
                && diff_case ~n (Scs_shard.Kv.spec ~buckets:2) kv_payload ~switches seed)
              [ 3; 1 ])
          seeds
      in
      if ok && !switches = 0 then
        QCheck.Test.fail_reportf "no stage switch after a cached response%s" Test_seed.label;
      ok)

(* The per-slot object names, as recorded before they were built by
   string concatenation instead of [Printf.sprintf] and before fallback
   stages were built on first use: every memory event of a solo run in
   full, and the digest plus the distinct names of round-robin runs that
   reach every stage. The UC solo events and the UC and service digests
   were re-recorded when [invoke] began reading the [C] counters after
   its announcement (the catch-up bound); the names did not change. *)
let names_of sim = List.map (fun e -> e.Mem_event.obj_name) (Sim.trace sim)

let uc_event_names policy procs =
  let sim = Sim.create ~n:2 () in
  Sim.set_trace sim true;
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let module AB = Scs_consensus.Abortable_bakery.Make (P) in
  let module CC = Scs_consensus.Cas_consensus.Make (P) in
  let stages =
    [
      (fun ~name ~slot:_ -> SC.instance (SC.create ~name ()));
      (fun ~name ~slot:_ -> AB.instance (AB.create ~name ~n:2 ()));
      (fun ~name ~slot:_ -> CC.instance (CC.create ~name ()));
    ]
  in
  let uc = UO.create ~name:"uc" ~n:2 ~max_requests:8 ~stages () in
  List.iter
    (fun pid ->
      Sim.spawn sim pid (fun () ->
          ignore (UO.invoke (UO.phandle uc ~pid) (Request.make pid Objects.Fai_inc))))
    procs;
  Sim.run sim policy;
  names_of sim

let chain_event_names ?(recoverable = false) policy procs =
  let sim = Sim.create ~n:2 () in
  Sim.set_trace sim true;
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module CH = Scs_consensus.Chain.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let module AB = Scs_consensus.Abortable_bakery.Make (P) in
  let module CC = Scs_consensus.Cas_consensus.Make (P) in
  let module RS = Scs_consensus.Recoverable_split.Make (P) in
  let module RB = Scs_consensus.Recoverable_bakery.Make (P) in
  let ch =
    CH.make ~name:"ch"
      [
        (if recoverable then RS.instance (RS.create ~name:"ch.split" ~n:2 ())
         else SC.instance (SC.create ~name:"ch.split" ()));
        (if recoverable then RB.instance (RB.create ~name:"ch.bakery" ~n:2 ())
         else AB.instance (AB.create ~name:"ch.bakery" ~n:2 ()));
        CC.instance (CC.create ~name:"ch.cas" ());
      ]
  in
  List.iter
    (fun pid ->
      Sim.spawn sim pid (fun () ->
          ignore (ch.Scs_consensus.Consensus_intf.run ~pid ~old:None (pid + 1))))
    procs;
  Sim.run sim policy;
  names_of sim

(* A 2-shard service at n = 2 under round-robin: each pid writes three
   keys and reads a fourth across both shards, and both shards' UCs
   reach every stage. *)
let service_event_names () =
  let sim = Sim.create ~n:2 () in
  Sim.set_trace sim true;
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module S = Scs_shard.Service.Make (P) in
  let svc = S.create ~name:"svc" ~n:2 ~shards:2 ~buckets:4 ~capacity:32 () in
  for pid = 0 to 1 do
    Sim.spawn sim pid (fun () ->
        let h = S.handle svc ~pid in
        List.iter
          (fun req -> ignore (S.apply h req))
          Scs_shard.Kv.[ Put (0, 10 + pid); Put (1, 20 + pid); Put (2, 30 + pid); Get 3 ])
  done;
  Sim.run sim (Policy.round_robin ());
  names_of sim

let test_object_names_pinned () =
  let check_all what expected names =
    Alcotest.(check string) what expected (String.concat " " names)
  in
  let check_digest what digest distinct names =
    Alcotest.(check string)
      (what ^ ": distinct names") distinct
      (String.concat " " (List.sort_uniq compare names));
    Alcotest.(check string)
      (what ^ ": event digest") digest
      (Digest.to_hex (Digest.string (String.concat " " names)))
  in
  check_all "uc solo"
    "uc.stage0.Reqs.snap[0] uc.stage0.Reqs.snap[1] uc.stage0.Reqs.snap[0] \
     uc.stage0.Reqs.snap[1] uc.stage0.Reqs.snap[0] uc.stage0.Reqs.snap[0] uc.stage0.C[0] \
     uc.stage0.C[1] uc.stage0.Aborted uc.stage0.Reqs.snap[0] uc.stage0.Reqs.snap[1] \
     uc.stage0.Reqs.snap[0] \
     uc.stage0.Reqs.snap[1] uc.stage0.cons0.S.X uc.stage0.cons0.S.Y uc.stage0.cons0.S.Y \
     uc.stage0.cons0.S.X uc.stage0.cons0.V uc.stage0.cons0.V uc.stage0.cons0.C \
     uc.stage0.cons0.S.X uc.stage0.cons0.S.Y uc.stage0.cons0.S.X uc.stage0.cons0.S.Y \
     uc.stage0.cons0.S.Y uc.stage0.cons0.S.X uc.stage0.cons0.V uc.stage0.cons0.V \
     uc.stage0.cons0.C uc.stage0.cons0.S.X uc.stage0.cons0.S.Y uc.stage0.C[0] \
     uc.stage0.Aborted"
    (uc_event_names (Policy.solo 0) [ 0 ]);
  check_all "chain solo"
    "ch.split.S.X ch.split.S.Y ch.split.S.Y ch.split.S.X ch.split.V ch.split.V ch.split.C \
     ch.split.S.X ch.split.S.Y ch.split.S.X ch.split.S.Y ch.split.S.Y ch.split.S.X ch.split.V \
     ch.split.V ch.split.C ch.split.S.X ch.split.S.Y ch.moved[0]"
    (chain_event_names (Policy.solo 0) [ 0 ]);
  check_digest "uc round-robin" "266e336447dc1a608774bba9bf6c1caf"
    "uc.stage0.Aborted uc.stage0.C[0] uc.stage0.C[1] uc.stage0.Reqs.snap[0] \
     uc.stage0.Reqs.snap[1] uc.stage0.cons0.C uc.stage0.cons0.S.X uc.stage0.cons0.S.Y \
     uc.stage0.cons0.V uc.stage1.Aborted uc.stage1.C[0] uc.stage1.C[1] uc.stage1.Reqs.snap[0] \
     uc.stage1.Reqs.snap[1] uc.stage1.cons0.A[0] uc.stage1.cons0.A[1] uc.stage1.cons0.B[0] \
     uc.stage1.cons0.B[1] uc.stage1.cons0.Dec uc.stage1.cons0.Quit uc.stage2.Aborted \
     uc.stage2.C[0] uc.stage2.C[1] uc.stage2.Reqs.snap[0] uc.stage2.Reqs.snap[1] \
     uc.stage2.cons0.CAS uc.stage2.cons1.CAS"
    (uc_event_names (Policy.round_robin ()) [ 0; 1 ]);
  check_digest "service round-robin" "36f6e7cf8a46fee9a69dbeb1c4f01fab"
    "svc.route[0] svc.route[1] svc.route[2] svc.shard[0].stage0.Aborted \
     svc.shard[0].stage0.C[0] svc.shard[0].stage0.C[1] svc.shard[0].stage0.Reqs.snap[0] \
     svc.shard[0].stage0.Reqs.snap[1] svc.shard[0].stage0.cons0.split[0].C \
     svc.shard[0].stage0.cons0.split[0].S.X svc.shard[0].stage0.cons0.split[0].S.Y \
     svc.shard[0].stage0.cons0.split[0].V svc.shard[0].stage1.Aborted \
     svc.shard[0].stage1.C[0] svc.shard[0].stage1.C[1] svc.shard[0].stage1.Reqs.snap[0] \
     svc.shard[0].stage1.Reqs.snap[1] svc.shard[0].stage1.cons0.bakery[0].A[0] \
     svc.shard[0].stage1.cons0.bakery[0].A[1] svc.shard[0].stage1.cons0.bakery[0].B[0] \
     svc.shard[0].stage1.cons0.bakery[0].B[1] svc.shard[0].stage1.cons0.bakery[0].Dec \
     svc.shard[0].stage1.cons0.bakery[0].Quit svc.shard[0].stage2.Aborted \
     svc.shard[0].stage2.C[0] svc.shard[0].stage2.C[1] svc.shard[0].stage2.Reqs.snap[0] \
     svc.shard[0].stage2.Reqs.snap[1] svc.shard[0].stage2.cons0.cas[0].CAS \
     svc.shard[0].stage2.cons1.cas[1].CAS svc.shard[0].stage2.cons2.cas[2].CAS \
     svc.shard[0].stage2.cons3.cas[3].CAS svc.shard[0].stage2.cons4.cas[4].CAS \
     svc.shard[0].stage2.cons5.cas[5].CAS svc.shard[1].stage0.Aborted \
     svc.shard[1].stage0.C[0] svc.shard[1].stage0.C[1] svc.shard[1].stage0.Reqs.snap[0] \
     svc.shard[1].stage0.Reqs.snap[1] svc.shard[1].stage0.cons0.split[0].C \
     svc.shard[1].stage0.cons0.split[0].S.X svc.shard[1].stage0.cons0.split[0].S.Y \
     svc.shard[1].stage0.cons0.split[0].V svc.shard[1].stage1.Aborted \
     svc.shard[1].stage1.C[0] svc.shard[1].stage1.C[1] svc.shard[1].stage1.Reqs.snap[0] \
     svc.shard[1].stage1.Reqs.snap[1] svc.shard[1].stage1.cons0.bakery[0].A[0] \
     svc.shard[1].stage1.cons0.bakery[0].A[1] svc.shard[1].stage1.cons0.bakery[0].B[0] \
     svc.shard[1].stage1.cons0.bakery[0].B[1] svc.shard[1].stage1.cons0.bakery[0].Dec \
     svc.shard[1].stage1.cons0.bakery[0].Quit svc.shard[1].stage1.cons1.bakery[1].A[0] \
     svc.shard[1].stage1.cons1.bakery[1].A[1] svc.shard[1].stage1.cons1.bakery[1].B[0] \
     svc.shard[1].stage1.cons1.bakery[1].B[1] svc.shard[1].stage1.cons1.bakery[1].Dec \
     svc.shard[1].stage1.cons1.bakery[1].Quit"
    (service_event_names ());
  check_digest "chain round-robin" "5dd69bb33e47a77811bdab1b7de1b76a"
    "ch.bakery.A[0] ch.bakery.A[1] ch.bakery.B[0] ch.bakery.B[1] ch.bakery.Dec \
     ch.bakery.Quit ch.cas.CAS ch.moved[0] ch.moved[1] ch.moved[2] ch.split.C ch.split.S.X \
     ch.split.S.Y ch.split.V"
    (chain_event_names (Policy.round_robin ()) [ 0; 1 ]);
  check_digest "recoverable chain round-robin" "accb4bab1b4768e4d03937391c0ce1db"
    "ch.bakery.A[0] ch.bakery.A[1] ch.bakery.B[0] ch.bakery.B[1] ch.bakery.Dec \
     ch.bakery.H[0] ch.bakery.H[1] ch.bakery.Ph[0] ch.bakery.Ph[1] ch.bakery.Quit ch.cas.CAS \
     ch.moved[0] ch.moved[1] ch.moved[2] ch.split.C ch.split.Ph[0] ch.split.Ph[1] ch.split.V \
     ch.split.X ch.split.Y"
    (chain_event_names ~recoverable:true (Policy.round_robin ()) [ 0; 1 ])

(* ---- fallback stages built on first switch ----------------------------- *)

(* A UC over the first [stages] of split > bakery > cas on [sim]; each of
   [procs] commits [ops] fetch&incs. *)
let spawn_uc ?(max_requests = 16) sim ~stages ~ops procs =
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let module AB = Scs_consensus.Abortable_bakery.Make (P) in
  let module CC = Scs_consensus.Cas_consensus.Make (P) in
  let factories =
    [
      (fun ~name ~slot:_ -> SC.instance (SC.create ~name ()));
      (fun ~name ~slot:_ -> AB.instance (AB.create ~name ~n:2 ()));
      (fun ~name ~slot:_ -> CC.instance (CC.create ~name ()));
    ]
  in
  let uc =
    UO.create ~name:"uc" ~n:2 ~max_requests
      ~stages:(List.filteri (fun i _ -> i < stages) factories)
      ()
  in
  List.iter
    (fun pid ->
      Sim.spawn sim pid (fun () ->
          let ph = UO.phandle uc ~pid in
          for k = 1 to ops do
            ignore (UO.invoke ph (Request.make ((2 * k) + pid) Objects.Fai_inc))
          done))
    procs

let on_stage k (e : Mem_event.t) =
  String.starts_with ~prefix:("uc.stage" ^ string_of_int k ^ ".") e.Mem_event.obj_name

let test_fallback_stages_lazy () =
  let stage0_only = Sim.create ~n:2 () in
  spawn_uc stage0_only ~stages:1 ~ops:3 [ 0 ];
  let solo = Sim.create ~n:2 () in
  Sim.set_trace solo true;
  spawn_uc solo ~stages:3 ~ops:3 [ 0 ];
  Sim.run solo (Policy.solo 0);
  Alcotest.(check int)
    "a solo run allocates stage 0's objects only"
    (Sim.objects_allocated stage0_only) (Sim.objects_allocated solo);
  Alcotest.(check bool) "every solo event is on stage 0" true
    (List.for_all (on_stage 0) (Sim.trace solo));
  let rr = Sim.create ~n:2 () in
  Sim.set_trace rr true;
  spawn_uc rr ~stages:3 ~ops:2 [ 0; 1 ];
  Sim.run rr (Policy.round_robin ());
  let events = Sim.trace_arr rr in
  let first p = Array.find_index p events in
  for k = 1 to 2 do
    let aborted = "uc.stage" ^ string_of_int (k - 1) ^ ".Aborted" in
    let set_aborted e = e.Mem_event.kind = Op.Write && e.obj_name = aborted in
    match (first (on_stage k), first set_aborted) with
    | Some used, Some set ->
        if used < set then
          Alcotest.failf "stage %d used at event %d, before %s is set at %d" k used aborted set
    | None, _ -> Alcotest.failf "the round-robin run never reaches stage %d" k
    | Some used, None ->
        Alcotest.failf "stage %d used at event %d, but %s is never set" k used aborted
  done

(* Two domains meet at a barrier before each of [objects] fresh UCs
   (stage factories [stages], room for [max_requests]) and then each
   commit [ops] fetch&incs on it. For every object the two last commit
   histories must be prefix-related: they would not be if the domains
   had built separate copies of a stage or a chunk, since each would then
   decide that copy's slots alone. *)
module NUO = Scs_universal.Uc_object.Make (Scs_prims.Native_prims)
module NCC = Scs_consensus.Cas_consensus.Make (Scs_prims.Native_prims)

let native_race ~objects ~max_requests ~ops stages =
  let ucs =
    Array.init objects (fun i ->
        NUO.create ~name:("race" ^ string_of_int i) ~n:2 ~max_requests ~stages ())
  in
  let arrived = Atomic.make 0 in
  let play pid () =
    Array.mapi
      (fun i uc ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 * (i + 1) do
          Domain.cpu_relax ()
        done;
        let ph = NUO.phandle uc ~pid in
        let last = ref [] in
        for k = 1 to ops do
          last := NUO.invoke ph (Request.make ((2 * k) + pid) Objects.Fai_inc)
        done;
        List.map Request.id !last)
      ucs
  in
  let other = Domain.spawn (play 1) in
  let mine = play 0 () in
  let theirs = Domain.join other in
  let rec prefix a b =
    match (a, b) with [], _ -> true | x :: a, y :: b -> x = y && prefix a b | _ :: _, [] -> false
  in
  Array.iteri
    (fun i h0 ->
      let h1 = theirs.(i) in
      if not (prefix h0 h1 || prefix h1 h0) then
        Alcotest.failf "object %d: histories [%s] and [%s] are not prefix-related" i
          (String.concat ";" (List.map string_of_int h0))
          (String.concat ";" (List.map string_of_int h1)))
    mine

let cas_stage ~name ~slot:_ = NCC.instance (NCC.create ~name ())

(* The stage-0 factory always aborts, so both domains switch into a fresh
   stage 1 at once. *)
let test_fallback_stage_native_race () =
  let abort ~name:_ ~slot:_ =
    Scs_consensus.Consensus_intf.wrap ~name:"abort" (fun ~pid:_ _ ->
        Scs_composable.Outcome.Abort None)
  in
  native_race ~objects:1_000 ~max_requests:4 ~ops:1 [ abort; cas_stage ]

(* ---- slots built in doubling chunks ------------------------------------ *)

(* For each [(k, built)]: a solo run of a 1-stage split UC with room for
   [max_requests] requests that commits [k] of them must have built the
   stage skeleton ([Aborted], [Reqs], [C]) and slots [0 .. built-1], no
   more. *)
let check_slots_built ~max_requests cases =
  let per_slot =
    let sim = Sim.create ~n:2 () in
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module SC = Scs_consensus.Split_consensus.Make (P) in
    ignore (SC.create ~name:"x" ());
    Sim.objects_allocated sim
  in
  let skeleton =
    let sim = Sim.create ~n:2 () in
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module UO = Scs_universal.Uc_object.Make (P) in
    let bare ~name:_ ~slot:_ =
      Scs_consensus.Consensus_intf.wrap ~name:"bare" (fun ~pid:_ _ ->
          Scs_composable.Outcome.Abort None)
    in
    ignore (UO.create ~name:"uc" ~n:2 ~max_requests ~stages:[ bare ] ());
    Sim.objects_allocated sim
  in
  List.iter
    (fun (k, built) ->
      let sim = Sim.create ~n:2 () in
      spawn_uc ~max_requests sim ~stages:1 ~ops:k [ 0 ];
      Sim.run sim (Policy.solo 0);
      Alcotest.(check int)
        (Printf.sprintf "%d commits build slots 0-%d" k (built - 1))
        (skeleton + (built * per_slot))
        (Sim.objects_allocated sim))
    cases

(* Room for 64 requests, [k] commits propose to slots 0 .. k-1: the
   chunks up to the one holding slot k-1 are built, slots 0-7, 8-23,
   24-55, then 56-63 (the last chunk cut at 64). *)
let test_slot_chunks_lazy () =
  check_slots_built ~max_requests:64
    [ (1, 8); (8, 8); (9, 24); (24, 24); (25, 56); (56, 56); (57, 64) ]

(* Past slot 56 the chunks stay at 64 slots: 56-119, 120-183, 184-247. *)
let test_slot_chunks_capped () =
  check_slots_built ~max_requests:256 [ (120, 120); (121, 184); (184, 184); (185, 248) ]

(* 20 requests per domain on 1-stage CAS UCs: the domains cross the
   chunk boundaries at slots 8 and 24 together. *)
let test_slot_chunk_native_race () = native_race ~objects:500 ~max_requests:64 ~ops:20 [ cas_stage ]

(* ---- catch-up below the count ------------------------------------------ *)

(* p0 commits 20 fetch&incs alone, then p1 invokes one on a 1-stage
   split UC at [n]. p1's count covers slots 0-19, so it proposes its own
   request there without a helping scan: after its announcement it reads
   [Reqs] for at most one scan (slot 20's), a double collect of [n]
   registers. *)
let test_catch_up n =
  let sim = Sim.create ~n () in
  Sim.set_trace sim true;
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let uc =
    UO.create ~name:"uc" ~n ~max_requests:32
      ~stages:[ (fun ~name ~slot:_ -> SC.instance (SC.create ~name ())) ]
      ()
  in
  let obj = UO.Typed.create Objects.fetch_and_increment uc in
  let answer = ref None in
  Sim.spawn sim 0 (fun () ->
      let h = UO.Typed.handle obj ~pid:0 in
      for k = 1 to 20 do
        ignore (UO.Typed.apply h (Request.make (n * k) Objects.Fai_inc))
      done);
  Sim.spawn sim 1 (fun () ->
      let h = UO.Typed.handle obj ~pid:1 in
      answer := Some (UO.Typed.apply h (Request.make 1 Objects.Fai_inc)));
  Sim.run sim (Policy.sequential ());
  Alcotest.(check bool)
    (Printf.sprintf "n=%d: p1 gets 20" n)
    true
    (!answer = Some (Objects.Fai_value 20));
  let p1 = List.filter (fun e -> e.Mem_event.pid = 1) (Sim.trace sim) in
  let named prefix e = String.starts_with ~prefix e.Mem_event.obj_name in
  for k = 0 to 20 do
    if not (List.exists (named (Printf.sprintf "uc.stage0.cons%d." k)) p1) then
      Alcotest.failf "n=%d: p1 never proposes on slot %d" n k
  done;
  let rec after_announce = function
    | [] -> Alcotest.failf "n=%d: p1 never announces" n
    | e :: tl ->
        if e.Mem_event.kind = Op.Write && named "uc.stage0.Reqs." e then tl else after_announce tl
  in
  let reqs_reads = List.length (List.filter (named "uc.stage0.Reqs.") (after_announce p1)) in
  if reqs_reads > 2 * n then
    Alcotest.failf "n=%d: p1 reads Reqs %d times after announcing (one scan is %d)" n reqs_reads
      (2 * n)

let test_catch_up_n2 () = test_catch_up 2
let test_catch_up_n3 () = test_catch_up 3

(* Alone, a process's count is its own: an n = 1 UC never reads [C]. *)
let test_solo_reads_no_count () =
  let sim = Sim.create ~n:1 () in
  Sim.set_trace sim true;
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let uc =
    UO.create ~name:"uc" ~n:1 ~max_requests:8
      ~stages:[ (fun ~name ~slot:_ -> SC.instance (SC.create ~name ())) ]
      ()
  in
  Sim.spawn sim 0 (fun () ->
      let ph = UO.phandle uc ~pid:0 in
      for k = 1 to 5 do
        ignore (UO.invoke ph (Request.make k Objects.Fai_inc))
      done);
  Sim.run sim (Policy.solo 0);
  let c_reads =
    List.filter
      (fun e ->
        e.Mem_event.kind = Op.Read
        && String.starts_with ~prefix:"uc.stage0.C[" e.Mem_event.obj_name)
      (Sim.trace sim)
  in
  Alcotest.(check int) "C reads" 0 (List.length c_reads)

(* ---- alone: no announcement, no helping choice ------------------------- *)

(* An n = 1 Typed register over [stages] (split, then CAS for the
   fallback): pid 0 applies [ops] mixed writes and reads under tracing.
   Returns the answers, the full commit log (a re-invoke of the last
   request returns it without taking a slot), the switch lengths and the
   trace. *)
let solo_register ~ops stages =
  let sim = Sim.create ~n:1 () in
  Sim.set_trace sim true;
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module SC = Scs_consensus.Split_consensus.Make (P) in
  let module CC = Scs_consensus.Cas_consensus.Make (P) in
  let split ~name ~slot:_ = SC.instance (SC.create ~name ()) in
  let cas ~name ~slot:_ = CC.instance (CC.create ~name ()) in
  let uc = UO.create ~name:"uc" ~n:1 ~max_requests:(ops + 8) ~stages:(stages ~split ~cas) () in
  let obj = UO.Typed.create Objects.register uc in
  let reqs =
    List.init ops (fun k ->
        Request.make (k + 1) (if k mod 3 = 2 then Objects.Reg_read else Objects.Reg_write k))
  in
  let answers = ref [] and log = ref [] and switches = ref [] in
  Sim.spawn sim 0 (fun () ->
      let th = UO.Typed.handle obj ~pid:0 in
      List.iter (fun req -> answers := (Request.id req, UO.Typed.apply th req) :: !answers) reqs;
      let ph = UO.Typed.phandle th in
      log := UO.invoke ph (List.nth reqs (ops - 1));
      switches := UO.switch_lengths ph);
  Sim.run sim (Policy.solo 0);
  (List.rev !answers, !log, !switches, Sim.trace sim)

(* "uc.stage<k>.Reqs.<register>" *)
let reqs_event name =
  match String.split_on_char '.' name with
  | "uc" :: _ :: "Reqs" :: _ -> true
  | _ -> false

(* Alone, nobody reads an announcement: no event touches [Reqs]. Every
   answer is the one [History.beta_at] gives on the full log, and the
   log holds the requests in invocation order. *)
let check_solo_run what ~ops (answers, log, _, trace) =
  Alcotest.(check int)
    (what ^ ": Reqs events") 0
    (List.length (List.filter (fun e -> reqs_event e.Mem_event.obj_name) trace));
  Alcotest.(check (list int))
    (what ^ ": log order") (List.init ops (fun k -> k + 1)) (List.map Request.id log);
  List.iter
    (fun (id, r) ->
      if History.beta_at Objects.register log id <> Some r then
        Alcotest.failf "%s: request %d answered %s" what id (Objects.register.Spec.show_resp r))
    answers

(* Census: a 200-op n = 1 UC neither writes nor scans [Reqs]. *)
let test_solo_census () =
  check_solo_run "census" ~ops:200 (solo_register ~ops:200 (fun ~split ~cas:_ -> [ split ]))

(* A stage 0 that aborts from slot [j] onward forces one switch at
   n = 1: recovery probes slots 0 .. j-1, and the abort history it hands
   to the fallback stage is those [j] requests plus the aborting one.
   Neither stage touches [Reqs], and the fallback answers the rest. *)
let test_solo_switch () =
  let j = 12 in
  let abort ~name:_ ~slot:_ =
    Scs_consensus.Consensus_intf.wrap ~name:"abort" (fun ~pid:_ _ ->
        Scs_composable.Outcome.Abort None)
  in
  let run =
    solo_register ~ops:40 (fun ~split ~cas ->
        [ (fun ~name ~slot -> if slot < j then split ~name ~slot else abort ~name ~slot); cas ])
  in
  let _, _, switches, _ = run in
  Alcotest.(check (list int)) "switch lengths" [ j + 1 ] switches;
  check_solo_run "switch" ~ops:40 run

(* ---- Typed's last-answer cache ------------------------------------------ *)

(* A native Typed fetch&inc at n = 2 whose spec counts its applies;
   [stages] are the chain's factories. *)
let counting_typed stages =
  let applies = ref 0 in
  let spec =
    let s = Objects.fetch_and_increment in
    Spec.make ~name:"counting" ~init:s.Spec.init
      ~apply:(fun q r ->
        incr applies;
        s.Spec.apply q r)
      ()
  in
  let uc = NUO.create ~name:"typed" ~n:2 ~max_requests:16 ~stages () in
  (NUO.Typed.handle (NUO.Typed.create spec uc) ~pid:0, applies)

let test_typed_last_answer () =
  let abort ~name:_ ~slot:_ =
    Scs_consensus.Consensus_intf.wrap ~name:"abort" (fun ~pid:_ _ ->
        Scs_composable.Outcome.Abort None)
  in
  List.iter
    (fun (what, stages, stage) ->
      let h, applies = counting_typed stages in
      let a = Request.make 2 Objects.Fai_inc and b = Request.make 4 Objects.Fai_inc in
      ignore (NUO.Typed.apply h a);
      let rb = NUO.Typed.apply h b in
      Alcotest.(check int) (what ^ ": stage") stage (NUO.stage_of (NUO.Typed.phandle h));
      let before = !applies in
      Alcotest.(check bool) (what ^ ": last answer again") true (NUO.Typed.apply h b = rb);
      Alcotest.(check int) (what ^ ": no spec apply") before !applies;
      Alcotest.(check bool)
        (what ^ ": an earlier answer is replayed")
        true
        (NUO.Typed.apply h a = Objects.Fai_value 0))
    [
      ("one stage", [ cas_stage ], 0);
      (* slot 1 aborts, so [b]'s apply switches stages *)
      ( "after a switch",
        [
          (fun ~name ~slot -> if slot = 0 then cas_stage ~name ~slot else abort ~name ~slot);
          cas_stage;
        ],
        1 );
    ]

(* ---- Typed's cursor into the log ---------------------------------------- *)

(* [n] processes each apply [ops] requests to one Typed sum whose payload
   is the request id; stage 0 aborts from slot 5 on, so every process
   switches to the CAS stage. The spec records the payloads it applies.
   After every apply, the entries applied since the process's last
   switch must be its current log, which [UO.invoke] of the request just
   applied returns without taking a slot, and the answer must be the one
   the log gives. At the end each process re-applies its first request:
   it is answered by replaying the log's prefix up to that request, one
   spec apply per entry. Returns the failures. *)
let typed_cursor_run ~n policy =
  let ops = 8 in
  let sim = Sim.create ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module UO = Scs_universal.Uc_object.Make (P) in
  let module CC = Scs_consensus.Cas_consensus.Make (P) in
  let cas ~name ~slot:_ = CC.instance (CC.create ~name ()) in
  let abort ~name:_ ~slot:_ =
    Scs_consensus.Consensus_intf.wrap ~name:"abort" (fun ~pid:_ _ ->
        Scs_composable.Outcome.Abort None)
  in
  let uc =
    UO.create ~name:"cur" ~n ~max_requests:((n * ops) + 8)
      ~stages:[ (fun ~name ~slot -> if slot < 5 then cas ~name ~slot else abort ~name ~slot); cas ]
      ()
  in
  let sum = Spec.make ~name:"sum" ~init:0 ~apply:(fun q x -> (q + x, q)) () in
  let seen = Array.make n [] and failures = ref [] in
  let fail pid fmt =
    Printf.ksprintf (fun m -> failures := Printf.sprintf "pid %d: %s" pid m :: !failures) fmt
  in
  let ids l = String.concat "," (List.map string_of_int l) in
  for pid = 0 to n - 1 do
    let recording =
      Spec.make ~name:"sum" ~init:0
        ~apply:(fun q x ->
          seen.(pid) <- x :: seen.(pid);
          sum.Spec.apply q x)
        ()
    in
    Sim.spawn sim pid (fun () ->
        let h = UO.Typed.handle (UO.Typed.create recording uc) ~pid in
        let ph = UO.Typed.phandle h in
        let reqs = List.init ops (fun k -> Request.make (1 + pid + (n * k)) (1 + pid + (n * k))) in
        let consumed = ref [] and typed_stage = ref 0 in
        List.iter
          (fun req ->
            seen.(pid) <- [];
            let r = UO.Typed.apply h req in
            consumed := if UO.stage_of ph <> !typed_stage then seen.(pid) else seen.(pid) @ !consumed;
            typed_stage := UO.stage_of ph;
            let log = UO.invoke ph req in
            (* unless the re-invoke met an abort and switched itself *)
            if UO.stage_of ph = !typed_stage && List.rev !consumed <> List.map Request.id log then
              fail pid "after %d: cursor consumed [%s], log [%s]" (Request.id req)
                (ids (List.rev !consumed))
                (ids (List.map Request.id log));
            if History.beta_at sum log (Request.id req) <> Some r then
              fail pid "request %d answered %d" (Request.id req) r)
          reqs;
        if UO.stage_of ph <> 1 then fail pid "ended on stage %d" (UO.stage_of ph);
        let first = List.hd reqs in
        let log = UO.invoke ph first in
        seen.(pid) <- [];
        let r = UO.Typed.apply h first in
        if History.beta_at sum log (Request.id first) <> Some r then
          fail pid "re-applied request %d answered %d" (Request.id first) r;
        let rec upto = function
          | [] -> []
          | e :: tl -> Request.id e :: (if Request.id e = Request.id first then [] else upto tl)
        in
        let replayed = List.rev seen.(pid) in
        if replayed <> upto log then
          fail pid "re-apply replayed [%s], log prefix [%s]" (ids replayed) (ids (upto log)))
  done;
  Sim.run sim policy;
  List.rev !failures

let test_typed_cursor () =
  let check what failures =
    if failures <> [] then Alcotest.failf "%s: %s" what (String.concat "; " failures)
  in
  check "n=1" (typed_cursor_run ~n:1 (Policy.solo 0));
  List.iter
    (fun (pname, policy) ->
      for seed = 1 to 10 do
        check (Printf.sprintf "n=2 %s seed %d" pname seed) (typed_cursor_run ~n:2 (policy seed))
      done)
    diff_policies

(* ---- allocation per op against history length --------------------------- *)

(* Minor words per op of a native n = 1 Typed register over a split
   stage (CAS behind it), driven through whole generations: each fresh
   object of [capacity] slots takes [capacity - 4] ops, then the next
   one is built, as the benchmark's arena does. *)
let solo_words_per_op ~capacity ~ops =
  let module SC = Scs_consensus.Split_consensus.Make (Scs_prims.Native_prims) in
  let split ~name ~slot:_ = SC.instance (SC.create ~name ()) in
  let per_gen = capacity - 4 in
  let gens = ops / per_gen in
  let before = Gc.minor_words () in
  for _ = 1 to gens do
    let uc = NUO.create ~name:"alloc" ~n:1 ~max_requests:capacity ~stages:[ split; cas_stage ] () in
    let h = NUO.Typed.handle (NUO.Typed.create Objects.register uc) ~pid:0 in
    for k = 1 to per_gen do
      let payload = if k mod 3 = 0 then Objects.Reg_read else Objects.Reg_write k in
      ignore (NUO.Typed.apply h (Request.make k payload))
    done
  done;
  (Gc.minor_words () -. before) /. float_of_int (gens * per_gen)

(* A commit allocates no copy of the log, so an op's allocation does not
   grow with the history: at capacity 1,024 a generation's ops allocate
   about what they do at capacity 64 (a deterministic count). *)
let test_alloc_flat_in_history () =
  let ops = 2_040 in
  let short = solo_words_per_op ~capacity:64 ~ops in
  let long = solo_words_per_op ~capacity:1_024 ~ops in
  if long > 1.25 *. short || short > 1.25 *. long then
    Alcotest.failf "minor words/op: %.0f at capacity 64, %.0f at capacity 1024" short long

let tests =
  [
    Alcotest.test_case "snapshot solo" `Quick test_snapshot_solo;
    Alcotest.test_case "snapshot scans comparable" `Quick test_snapshot_random_linearizable;
    Alcotest.test_case "snapshot monotone under interference" `Quick
      test_snapshot_update_embeds_view;
    Alcotest.test_case "snapshot wait-free" `Quick test_snapshot_wait_free;
    Alcotest.test_case "uc: cas-stage fetch&inc" `Quick test_uc_cas_fai;
    Alcotest.test_case "uc: split stage solo" `Quick test_uc_split_solo;
    Alcotest.test_case "uc: split stage sequential" `Quick test_uc_split_sequential;
    Alcotest.test_case "uc: composed chain random" `Quick test_uc_composed_random;
    Alcotest.test_case "uc: Prop 2 — Abstract solves consensus" `Quick
      test_prop2_abstract_solves_consensus;
    Alcotest.test_case "uc: state transfer grows (T5)" `Quick test_uc_state_transfer_grows;
    Alcotest.test_case "uc: typed queue linearizable" `Quick test_typed_queue_linearizable;
    Alcotest.test_case "uc: typed queue sequential" `Quick test_typed_queue_sequential_fifo;
    Alcotest.test_case "uc: object names pinned" `Quick test_object_names_pinned;
    Alcotest.test_case "uc: fallback stages cost nothing until a switch" `Quick
      test_fallback_stages_lazy;
    Alcotest.test_case "uc: racing switches share one fallback stage" `Quick
      test_fallback_stage_native_race;
    Alcotest.test_case "uc: slots are built in doubling chunks on first use" `Quick
      test_slot_chunks_lazy;
    Alcotest.test_case "uc: racing chunk builds share one copy" `Quick
      test_slot_chunk_native_race;
    Alcotest.test_case "uc: chunks stop doubling at 64 slots" `Quick test_slot_chunks_capped;
    Alcotest.test_case "uc: catch-up below the count (n=2)" `Quick test_catch_up_n2;
    Alcotest.test_case "uc: catch-up below the count (n=3)" `Quick test_catch_up_n3;
    Alcotest.test_case "uc: a solo UC reads no count" `Quick test_solo_reads_no_count;
    Alcotest.test_case "uc: a solo UC never touches Reqs" `Quick test_solo_census;
    Alcotest.test_case "uc: a solo UC switches and answers on" `Quick test_solo_switch;
    Alcotest.test_case "uc: Typed keeps the last answer" `Quick test_typed_last_answer;
    Alcotest.test_case "uc: Typed's cursor reads the log" `Quick test_typed_cursor;
    Alcotest.test_case "uc: op allocation flat in history length" `Quick
      test_alloc_flat_in_history;
  ]

(* Run by CI under several SCS_QCHECK_SEED values. *)
let diff_tests =
  [ QCheck_alcotest.to_alcotest ~rand:(Test_seed.rand ()) prop_typed_matches_replay ]
