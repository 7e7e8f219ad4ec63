(* The generic light-weight speculative object (lib/futures): queues and
   fetch&inc — the paper's future-work objects — with an O(1) fast path
   and history transfer on switch. Includes the executable negative
   result: state-only transfer (dropping the replay table) duplicates
   surviving effects and breaks linearizability. *)

open Scs_spec
open Scs_history
open Scs_sim
open Scs_futures

let queue_state_to_requests q = List.map (fun x -> Objects.Enqueue x) q

(* run a queue workload on the simulator and return the client trace *)
let run_queue ?(transfer = Spec_object.History) ?(ops_per_proc = 3) ?(crashes = []) ~n ~seed
    ~policy () =
  let sim = Sim.create ~max_steps:20_000_000 ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module SO = Spec_object.Make (P) in
  let obj =
    SO.create ~transfer ~name:"q" ~n ~max_requests:(8 * n * ops_per_proc)
      ~spec:Objects.queue ~state_to_requests:queue_state_to_requests ()
  in
  let gen = Request.Gen.create () in
  let tr : (Objects.queue_req, Objects.queue_resp, unit) Trace.t =
    Trace.create ~clock:(fun () -> Sim.clock sim) ()
  in
  let stages = Array.make n Spec_object.Fast in
  let switch_lens = ref [] in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let h = SO.handle obj ~pid in
        for k = 1 to ops_per_proc do
          let payload =
            if k mod 2 = 1 then Objects.Enqueue ((100 * pid) + k) else Objects.Dequeue
          in
          let req = Request.Gen.fresh gen payload in
          Trace.invoke tr ~pid req;
          let resp = SO.apply h req in
          Trace.commit tr ~pid req resp
        done;
        stages.(pid) <- SO.stage_of h;
        match SO.switch_len h with Some l -> switch_lens := l :: !switch_lens | None -> ())
  done;
  Sim.run ~crashes:(Crash.of_pairs crashes) sim (policy (Scs_util.Rng.create seed));
  (Trace.events tr, stages, !switch_lens, sim)

let test_queue_sequential () =
  let evs, stages, _, _ = run_queue ~n:3 ~seed:1 ~policy:(fun _ -> Policy.sequential ()) () in
  Alcotest.(check bool) "linearizable" true (Linearize.check_events Objects.queue evs);
  Array.iter
    (fun s -> Alcotest.(check bool) "stayed fast" true (s = Spec_object.Fast))
    stages

let test_queue_solo_steps_constant () =
  let _, _, _, sim = run_queue ~n:4 ~ops_per_proc:1 ~seed:1 ~policy:(fun _ -> Policy.solo 0) () in
  let module SOs = Spec_object.Make (Scs_prims.Native_prims) in
  Alcotest.(check int) "solo steps" (SOs.fast_solo_steps ()) (Sim.steps_of sim 0);
  Alcotest.(check int) "no RMW on fast path" 0 (Sim.rmws_of sim 0)

let test_queue_random_linearizable () =
  for seed = 1 to 60 do
    let evs, _, _, _ = run_queue ~n:3 ~seed ~policy:Policy.random () in
    if not (Linearize.check_events Objects.queue evs) then
      Alcotest.failf "queue not linearizable at seed %d" seed
  done

let test_queue_crash_safety () =
  for seed = 1 to 40 do
    let evs, _, _, _ =
      run_queue ~n:3 ~seed ~crashes:[ (seed mod 3, 1 + (seed mod 11)) ] ~policy:Policy.random ()
    in
    if not (Linearize.check_events Objects.queue evs) then
      Alcotest.failf "queue with crash not linearizable at seed %d" seed
  done

let test_queue_contention_switches () =
  let switched = ref false in
  for seed = 1 to 30 do
    let _, stages, _, _ = run_queue ~n:3 ~seed ~policy:Policy.random () in
    if Array.exists (fun s -> s = Spec_object.Fallback) stages then switched := true
  done;
  Alcotest.(check bool) "fallback exercised" true !switched

let test_queue_switch_len_grows_with_work () =
  let max_len ~ops_per_proc =
    let acc = ref 0 in
    for seed = 1 to 25 do
      let _, _, lens, _ =
        run_queue ~ops_per_proc ~n:3 ~seed
          ~policy:(fun rng -> Policy.sticky rng ~switch_prob:0.08)
          ()
      in
      List.iter (fun l -> acc := max !acc l) lens
    done;
    !acc
  in
  let small = max_len ~ops_per_proc:2 in
  let large = max_len ~ops_per_proc:10 in
  Alcotest.(check bool) "longer runs transfer longer histories" true (large > small)

let test_state_only_transfer_breaks () =
  (* the executable negative result: dropping the replay table lets a
     surviving effect be re-applied; some schedule shows a duplicate
     (non-linearizable queue behaviour) *)
  let broken = ref false in
  (try
     for seed = 1 to 4000 do
       let evs, _, _, _ =
         run_queue ~transfer:Spec_object.State_only ~n:3 ~ops_per_proc:4 ~seed
           ~policy:Policy.random ()
       in
       if not (Linearize.check_events Objects.queue evs) then begin
         broken := true;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool) "state-only transfer exhibits non-linearizable runs" true !broken

(* fetch&inc instance *)

let run_fai ~n ~seed ~ops_per_proc ~policy () =
  let sim = Sim.create ~max_steps:20_000_000 ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module SO = Spec_object.Make (P) in
  let obj =
    SO.create ~name:"f" ~n ~max_requests:(8 * n * ops_per_proc) ~spec:Objects.fetch_and_increment
      ~state_to_requests:(fun v -> List.init v (fun _ -> Objects.Fai_inc))
      ()
  in
  let gen = Request.Gen.create () in
  let tr : (Objects.fai_req, Objects.fai_resp, unit) Trace.t =
    Trace.create ~clock:(fun () -> Sim.clock sim) ()
  in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let h = SO.handle obj ~pid in
        for _ = 1 to ops_per_proc do
          let req = Request.Gen.fresh gen Objects.Fai_inc in
          Trace.invoke tr ~pid req;
          let resp = SO.apply h req in
          Trace.commit tr ~pid req resp
        done)
  done;
  Sim.run sim (policy (Scs_util.Rng.create seed));
  Trace.events tr

let test_fai_linearizable_and_distinct () =
  for seed = 1 to 60 do
    let evs = run_fai ~n:3 ~seed ~ops_per_proc:3 ~policy:Policy.random () in
    if not (Linearize.check_events Objects.fetch_and_increment evs) then
      Alcotest.failf "fai not linearizable at seed %d" seed;
    (* all returned values distinct *)
    let values =
      Array.to_list evs
      |> List.filter_map (function
           | Trace.Commit { resp = Objects.Fai_value v; _ } -> Some v
           | _ -> None)
    in
    if List.length (List.sort_uniq compare values) <> List.length values then
      Alcotest.failf "duplicate counter values at seed %d" seed
  done

let test_fai_exhaustive_2 () =
  let current = ref None in
  let setup sim =
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module SO = Spec_object.Make (P) in
    let obj =
      SO.create ~name:"f" ~n:2 ~max_requests:16 ~spec:Objects.fetch_and_increment
        ~state_to_requests:(fun v -> List.init v (fun _ -> Objects.Fai_inc))
        ()
    in
    let tr : (Objects.fai_req, Objects.fai_resp, unit) Trace.t =
      Trace.create ~clock:(fun () -> Sim.clock sim) ()
    in
    current := Some tr;
    for pid = 0 to 1 do
      Sim.spawn sim pid (fun () ->
          let h = SO.handle obj ~pid in
          let req = Request.make pid Objects.Fai_inc in
          Trace.invoke tr ~pid req;
          let resp = SO.apply h req in
          Trace.commit tr ~pid req resp)
    done
  in
  let bad = ref 0 in
  let check _ _ =
    let tr = Option.get !current in
    if not (Linearize.check_events Objects.fetch_and_increment (Trace.events tr)) then incr bad
  in
  (* the plain n=2 space exceeds 20M schedules (the seed engine's 120k
     budget sampled under 1% of it); sleep-set POR covers the whole space
     through ~1.7k class representatives in about a second *)
  let outcome = Explore.exhaustive ~max_schedules:120_000 ~por:true ~n:2 ~setup ~check () in
  Alcotest.(check bool) "full POR coverage" false outcome.Explore.truncated;
  Alcotest.(check bool) "POR pruned schedules" true (outcome.Explore.pruned > 0);
  Alcotest.(check int) "linearizable on all explored schedules" 0 !bad;
  Alcotest.(check bool) "substantial coverage" true (outcome.Explore.schedules > 1000)

let tests =
  [
    Alcotest.test_case "queue sequential" `Quick test_queue_sequential;
    Alcotest.test_case "queue solo O(1), RMW-free" `Quick test_queue_solo_steps_constant;
    Alcotest.test_case "queue random linearizable" `Quick test_queue_random_linearizable;
    Alcotest.test_case "queue crash safety" `Quick test_queue_crash_safety;
    Alcotest.test_case "queue switches under contention" `Quick test_queue_contention_switches;
    Alcotest.test_case "queue switch length grows" `Quick test_queue_switch_len_grows_with_work;
    Alcotest.test_case "state-only transfer breaks (negative)" `Quick
      test_state_only_transfer_breaks;
    Alcotest.test_case "fai linearizable + distinct" `Quick test_fai_linearizable_and_distinct;
    Alcotest.test_case "fai exhaustive n=2 (POR-complete)" `Slow test_fai_exhaustive_2;
  ]
