(* Native / sim-linearizable / sim-SC parity audit.

   All three backends implement {!Scs_prims.Prims_intf.S}; the
   module-level coercions below make the interface conformance a
   compile-time fact, and the scripted run checks *behavioural* parity:
   one deterministic op sequence over every object class, executed
   directly on the native backend and inside a single simulator fiber,
   must produce the exact same observation list.

   The audit script is solo, so it pins the *universal* conformance
   properties — the ones every backend must satisfy regardless of
   consistency model: a process always sees its own writes, and RMW
   objects are atomic. The SC backend therefore matches at every lag on
   the solo script; what separates it is a *backend-specific* property,
   remote-write visibility, which needs two processes — the
   discriminator test at the bottom pins fresh reads on native-style
   backends (sim-lin, sim-sc:0) and a stale read on sim-sc:1. *)

module Intf = Scs_prims.Prims_intf
module Sim = Scs_sim.Sim
module Policy = Scs_sim.Policy
module Backend = Scs_prims.Backend

(* compile-time conformance pins *)
module _ : Intf.S = Scs_prims.Native_prims

let _sim_conforms (sim : Sim.t) : (module Intf.S) = Scs_prims.Sim_prims.make sim
let _sc_conforms (sim : Sim.t) : (module Intf.S) = Scs_prims.Sc_prims.make sim

(* The audit script: every operation of every object class in
   {!Intf.S}, solo, recording each observable result. Booleans are
   encoded as 0/1 so the whole trace is one int list. *)
let script (module P : Intf.S) : int list =
  let out = ref [] in
  let int i = out := i :: !out in
  let bool b = int (if b then 1 else 0) in
  (* registers *)
  let r = P.reg ~name:"r" 7 in
  int (P.read r);
  P.write r 13;
  int (P.read r);
  (* test-and-set *)
  let t = P.tas_obj ~name:"t" () in
  bool (P.tas_read t);
  bool (P.test_and_set t);
  bool (P.test_and_set t);
  bool (P.tas_read t);
  P.tas_reset t;
  bool (P.tas_read t);
  bool (P.test_and_set t);
  (* fetch-and-increment *)
  let f = P.fai_obj ~name:"f" 5 in
  int (P.fetch_and_inc f);
  int (P.fetch_and_inc f);
  int (P.fai_read f);
  (* swap *)
  let s = P.swap_obj ~name:"s" 1 in
  int (P.swap s 2);
  int (P.swap s 3);
  int (P.swap_read s);
  (* compare-and-swap (physical equality; immediates compare reliably) *)
  let c = P.cas_obj ~name:"c" 10 in
  int (P.cas_read c);
  bool (P.compare_and_swap c ~expect:10 ~update:20);
  bool (P.compare_and_swap c ~expect:10 ~update:30);
  int (P.cas_read c);
  bool (P.compare_and_swap c ~expect:20 ~update:40);
  int (P.cas_read c);
  (* pause must be a no-op for values (it only yields the scheduler) *)
  P.pause ();
  int (P.cas_read c);
  List.rev !out

let expected =
  [
    7; 13;                (* reg *)
    0; 1; 0; 1; 0; 1;     (* tas *)
    5; 6; 7;              (* fai *)
    1; 2; 3;              (* swap *)
    10; 1; 0; 20; 1; 40;  (* cas *)
    40;                   (* after pause *)
  ]

let run_native () = script (module Scs_prims.Native_prims)

let run_backend backend =
  let sim = Sim.create ~n:1 () in
  let module P = (val Backend.sim_prims backend sim) in
  let result = ref [] in
  Sim.spawn sim 0 (fun () -> result := script (module P));
  Sim.run sim (Policy.sequential ());
  !result

let run_sim () = run_backend Backend.Sim_lin

let test_native_script () =
  Alcotest.(check (list int)) "native trace" expected (run_native ())

let test_sim_script () =
  Alcotest.(check (list int)) "sim trace" expected (run_sim ())

let test_parity () =
  Alcotest.(check (list int)) "native = sim" (run_native ()) (run_sim ())

let test_sc_parity_solo () =
  (* universal conformance: own-write visibility makes the solo audit
     trace backend-independent, at any staleness bound *)
  List.iter
    (fun lag ->
      Alcotest.(check (list int))
        (Printf.sprintf "native = sim-sc:%d on the solo script" lag)
        (run_native ())
        (run_backend (Backend.Sim_sc { lag })))
    [ 0; 1; 3 ]

let test_backend_discriminator () =
  (* backend-specific conformance: a fully-completed remote write is
     visible to a later reader on linearizable backends, but may be lag
     writes stale on sim-sc — the one property the audit script cannot
     see solo, and exactly what difffuzz exploits *)
  let read_after_remote_write backend =
    let sim = Sim.create ~n:2 () in
    let module P = (val Backend.sim_prims backend sim) in
    let x = P.reg ~name:"x" 0 in
    let seen = ref (-1) in
    Sim.spawn sim 0 (fun () -> P.write x 1);
    Sim.spawn sim 1 (fun () -> seen := P.read x);
    Sim.run sim (Policy.sequential ());
    !seen
  in
  Alcotest.(check int) "sim-lin reads fresh" 1 (read_after_remote_write Backend.Sim_lin);
  Alcotest.(check int) "sim-sc:0 reads fresh" 1
    (read_after_remote_write (Backend.Sim_sc { lag = 0 }));
  Alcotest.(check int) "sim-sc:1 reads stale" 0
    (read_after_remote_write (Backend.Sim_sc { lag = 1 }))

let test_backend_names_roundtrip () =
  List.iter
    (fun b ->
      match Backend.of_string (Backend.name b) with
      | Ok b' -> Alcotest.(check bool) (Backend.name b) true (b = b')
      | Error e -> Alcotest.failf "%s does not round-trip: %s" (Backend.name b) e)
    [ Backend.Sim_lin; Backend.Sim_sc { lag = 0 }; Backend.Sim_sc { lag = 4 }; Backend.Native ];
  (match Backend.of_string "sim-sc" with
  | Ok (Backend.Sim_sc { lag }) ->
      Alcotest.(check int) "bare sim-sc gets the default lag" Scs_prims.Sc_prims.default_lag lag
  | _ -> Alcotest.fail "bare sim-sc should parse");
  (match Backend.of_string "sim-sc:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative lag must be rejected");
  (match Backend.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend must be rejected");
  let sim = Sim.create ~n:1 () in
  match Backend.sim_prims Backend.Native sim with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sim_prims must reject Native"

let test_pause_costs_a_sim_step () =
  (* interface parity does not mean cost parity: the simulator's pause
     consumes one scheduler turn so spinners cannot starve the fuse *)
  let sim = Sim.create ~n:1 () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  Sim.spawn sim 0 (fun () ->
      P.pause ();
      P.pause ());
  Sim.run sim (Policy.sequential ());
  Alcotest.(check bool) "pause consumed steps" true (Sim.total_steps sim >= 2)

let tests =
  [
    Alcotest.test_case "audit script on native backend" `Quick test_native_script;
    Alcotest.test_case "audit script on sim backend" `Quick test_sim_script;
    Alcotest.test_case "native/sim behavioural parity" `Quick test_parity;
    Alcotest.test_case "native/sim-sc solo parity at any lag" `Quick test_sc_parity_solo;
    Alcotest.test_case "remote-write visibility discriminates backends" `Quick
      test_backend_discriminator;
    Alcotest.test_case "backend names round-trip" `Quick test_backend_names_roundtrip;
    Alcotest.test_case "sim pause consumes a step" `Quick test_pause_costs_a_sim_step;
  ]
