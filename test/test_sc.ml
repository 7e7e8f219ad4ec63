(* Sequential consistency: known-answer litmus battery for the SC
   membership checker (Linearize.check_sc_operations) and the SC
   register backend (Scs_prims.Sc_prims).

   The history-level tests hand-check the classic shapes against both
   checkers: a stale read after a remote completed write separates SC
   from linearizability; a new/old inversion violates even SC; the
   store-buffering (SB) shape is the minimal witness that SC is not
   compositional — the global history is not SC while each register's
   subhistory is.

   The backend-level tests run the same shapes operationally on
   Sc_prims: lag 0 is observationally atomic, lag >= 1 serves bounded
   stale reads while keeping own writes visible and per-process views
   monotone, and RMW objects stay atomic at any lag. *)

open Scs_spec
open Scs_history
module Sim = Scs_sim.Sim
module Policy = Scs_sim.Policy

(* ---- history constructors --------------------------------------------- *)

let mkop ~pid ~id ~inv ~res req resp =
  {
    Trace.op_pid = pid;
    op_req = Request.make id req;
    invoke_seq = inv;
    invoke_ts = inv;
    op_init = None;
    op_recoveries = 0;
    outcome = Trace.Committed { resp; resp_seq = res; resp_ts = res };
  }

let mkpend ~pid ~id ~inv req =
  {
    Trace.op_pid = pid;
    op_req = Request.make id req;
    invoke_seq = inv;
    invoke_ts = inv;
    op_init = None;
    op_recoveries = 0;
    outcome = Trace.Pending;
  }

let w ~pid ~id ~inv ~res v = mkop ~pid ~id ~inv ~res (Objects.Reg_write v) Objects.Reg_ok

let r ~pid ~id ~inv ~res v =
  mkop ~pid ~id ~inv ~res Objects.Reg_read (Objects.Reg_value v)

let lin ops = Linearize.check_operations Objects.register ops
let sc ops = Linearize.check_sc_operations Objects.register ops

(* ---- single-register litmus ------------------------------------------- *)

let test_stale_read_sc_not_lin () =
  (* p0's write(1) completes strictly before p1's read begins; the read
     returns the initial 0. Illegal in real time, legal under SC (order
     the read before the write). *)
  let h = [ w ~pid:0 ~id:0 ~inv:1 ~res:2 1; r ~pid:1 ~id:1 ~inv:3 ~res:4 0 ] in
  Alcotest.(check bool) "not linearizable" false (lin h);
  Alcotest.(check bool) "sequentially consistent" true (sc h)

let test_fresh_read_both () =
  let h = [ w ~pid:0 ~id:0 ~inv:1 ~res:2 1; r ~pid:1 ~id:1 ~inv:3 ~res:4 1 ] in
  Alcotest.(check bool) "linearizable" true (lin h);
  Alcotest.(check bool) "sequentially consistent" true (sc h)

let test_new_old_inversion_not_sc () =
  (* p1 reads the new value and then, later in its own program order,
     the old one. No total order explains that: even SC forbids it. *)
  let h =
    [
      w ~pid:0 ~id:0 ~inv:1 ~res:2 1;
      r ~pid:1 ~id:1 ~inv:3 ~res:4 1;
      r ~pid:1 ~id:2 ~inv:5 ~res:6 0;
    ]
  in
  Alcotest.(check bool) "not linearizable" false (lin h);
  Alcotest.(check bool) "not SC either" false (sc h)

let test_stale_pair_reads_sc () =
  (* both readers stale, independently orderable before the write *)
  let h =
    [
      w ~pid:0 ~id:0 ~inv:1 ~res:2 5;
      r ~pid:1 ~id:1 ~inv:3 ~res:4 0;
      r ~pid:2 ~id:2 ~inv:5 ~res:6 5;
    ]
  in
  Alcotest.(check bool) "not linearizable" false (lin h);
  Alcotest.(check bool) "sequentially consistent" true (sc h)

let test_read_from_nowhere_not_sc () =
  (* no write of 2 exists anywhere: no consistency model explains it *)
  let h = [ w ~pid:0 ~id:0 ~inv:1 ~res:2 1; r ~pid:1 ~id:1 ~inv:3 ~res:4 2 ] in
  Alcotest.(check bool) "not SC" false (sc h)

let test_pending_write_may_take_effect () =
  (* a pending write may be linearized (explaining the read) or dropped
     (explaining nothing) — the read of 1 forces the former *)
  let h = [ mkpend ~pid:0 ~id:0 ~inv:1 (Objects.Reg_write 1); r ~pid:1 ~id:1 ~inv:2 ~res:3 1 ] in
  Alcotest.(check bool) "pending write can explain the read" true (sc h);
  let h' = [ mkpend ~pid:0 ~id:0 ~inv:1 (Objects.Reg_write 1); r ~pid:1 ~id:1 ~inv:2 ~res:3 2 ] in
  Alcotest.(check bool) "but cannot invent values" false (sc h')

(* ---- the SB / MP shapes: SC is not compositional ----------------------- *)

(* A two-register product spec: requests name the register. *)
type pair_req = PW of int * int | PR of int
type pair_resp = P_ok | P_val of int

let pair_register : (int * int, pair_req, pair_resp) Spec.t =
  Spec.make ~name:"pair-register" ~init:(0, 0)
    ~apply:(fun (a, b) req ->
      match req with
      | PW (0, v) -> ((v, b), P_ok)
      | PW (_, v) -> ((a, v), P_ok)
      | PR 0 -> ((a, b), P_val a)
      | PR _ -> ((a, b), P_val b))
    ()

(* Store buffering: p0 writes x then reads y; p1 writes y then reads x;
   both reads return the initial 0. Program order gives
   Ry < Wy < Rx < Wx < Ry — a cycle, so the global history is not SC.
   Each register's subhistory in isolation is just a stale read, which
   IS SC: per-object SC does not compose (Perrin et al.). *)
let sb_global =
  [
    mkop ~pid:0 ~id:0 ~inv:1 ~res:3 (PW (0, 1)) P_ok;
    mkop ~pid:1 ~id:1 ~inv:2 ~res:4 (PW (1, 1)) P_ok;
    mkop ~pid:0 ~id:2 ~inv:5 ~res:7 (PR 1) (P_val 0);
    mkop ~pid:1 ~id:3 ~inv:6 ~res:8 (PR 0) (P_val 0);
  ]

let sb_projection ~reg =
  List.filter_map
    (fun (o : _ Trace.operation) ->
      match (Request.payload o.Trace.op_req, o.Trace.outcome) with
      | PW (i, v), Trace.Committed { resp_seq; _ } when i = reg ->
          Some (w ~pid:o.Trace.op_pid ~id:(Request.id o.Trace.op_req)
                  ~inv:o.Trace.invoke_seq ~res:resp_seq v)
      | PR i, Trace.Committed { resp = P_val v; resp_seq; _ } when i = reg ->
          Some (r ~pid:o.Trace.op_pid ~id:(Request.id o.Trace.op_req)
                  ~inv:o.Trace.invoke_seq ~res:resp_seq v)
      | _ -> None)
    sb_global

let test_sb_not_sc_globally () =
  Alcotest.(check bool) "SB history is not SC over the whole memory" false
    (Linearize.check_sc_operations pair_register sb_global)

let test_sb_projections_are_sc () =
  List.iter
    (fun reg ->
      let sub = sb_projection ~reg in
      Alcotest.(check int) "projection has both ops" 2 (List.length sub);
      Alcotest.(check bool)
        (Printf.sprintf "register %d subhistory is SC" reg)
        true (sc sub);
      Alcotest.(check bool)
        (Printf.sprintf "register %d subhistory is not linearizable" reg)
        false (lin sub))
    [ 0; 1 ]

let test_mp_not_sc () =
  (* message passing: p0 writes data x then flag y; p1 reads the flag as
     set but the data as stale — forbidden even under SC, because p0's
     program order sequences Wx before Wy. *)
  let h =
    [
      mkop ~pid:0 ~id:0 ~inv:1 ~res:2 (PW (0, 1)) P_ok;
      mkop ~pid:0 ~id:1 ~inv:3 ~res:4 (PW (1, 1)) P_ok;
      mkop ~pid:1 ~id:2 ~inv:5 ~res:6 (PR 1) (P_val 1);
      mkop ~pid:1 ~id:3 ~inv:7 ~res:8 (PR 0) (P_val 0);
    ]
  in
  Alcotest.(check bool) "MP stale-data-behind-flag is not SC" false
    (Linearize.check_sc_operations pair_register h)

let test_mp_fresh_is_linearizable () =
  let h =
    [
      mkop ~pid:0 ~id:0 ~inv:1 ~res:2 (PW (0, 1)) P_ok;
      mkop ~pid:0 ~id:1 ~inv:3 ~res:4 (PW (1, 1)) P_ok;
      mkop ~pid:1 ~id:2 ~inv:5 ~res:6 (PR 1) (P_val 1);
      mkop ~pid:1 ~id:3 ~inv:7 ~res:8 (PR 0) (P_val 1);
    ]
  in
  Alcotest.(check bool) "fresh MP is linearizable" true
    (Linearize.check_operations pair_register h);
  Alcotest.(check bool) "and therefore SC" true
    (Linearize.check_sc_operations pair_register h)

(* ---- operational litmus on the Sc_prims backend ------------------------ *)

(* Run [fibers] (one closure per pid) on a fresh simulator with the SC
   backend at [lag], under the deterministic lowest-pid-first policy:
   each fiber executes to completion before the next starts, so every
   observed staleness is the backend's doing, not the schedule's. *)
let run_sc ~lag ~n fibers =
  let sim = Sim.create ~n () in
  let module P = (val Scs_prims.Sc_prims.make ~lag sim) in
  let fibers = fibers (module P : Scs_prims.Prims_intf.S) in
  List.iteri (fun pid f -> Sim.spawn sim pid f) fibers;
  Sim.run sim (Policy.sequential ());
  ()

let test_backend_stale_read_at_lag1 () =
  (* p0's write is globally complete before p1 even starts — yet p1's
     first read may lawfully return the initial value at lag 1 *)
  let observed = ref (-1) in
  run_sc ~lag:1 ~n:2 (fun (module P : Scs_prims.Prims_intf.S) ->
      let x = P.reg ~name:"x" 0 in
      [ (fun () -> P.write x 1); (fun () -> observed := P.read x) ]);
  Alcotest.(check int) "read is one write stale" 0 !observed

let test_backend_lag0_is_atomic () =
  let observed = ref (-1) in
  run_sc ~lag:0 ~n:2 (fun (module P : Scs_prims.Prims_intf.S) ->
      let x = P.reg ~name:"x" 0 in
      [ (fun () -> P.write x 1); (fun () -> observed := P.read x) ]);
  Alcotest.(check int) "lag 0 reads are fresh" 1 !observed

let test_backend_lag_bounds_staleness () =
  (* after three writes, lag 2 may hide at most the last two *)
  let observed = ref (-1) in
  run_sc ~lag:2 ~n:2 (fun (module P : Scs_prims.Prims_intf.S) ->
      let x = P.reg ~name:"x" 0 in
      [
        (fun () -> P.write x 1; P.write x 2; P.write x 3);
        (fun () -> observed := P.read x);
      ]);
  Alcotest.(check int) "staleness bounded by lag" 1 !observed

let test_backend_own_writes_visible () =
  (* own writes are always visible, at any lag *)
  let observed = ref (-1) in
  run_sc ~lag:9 ~n:1 (fun (module P : Scs_prims.Prims_intf.S) ->
      let x = P.reg ~name:"x" 0 in
      [ (fun () -> P.write x 1; P.write x 2; observed := P.read x) ]);
  Alcotest.(check int) "reads own latest write" 2 !observed

let test_backend_views_monotone () =
  (* once a process has observed a value, it never reads an older one:
     p1's second read must repeat 1 even though lag would allow 0 for a
     fresh observer *)
  let first = ref (-1) and second = ref (-1) in
  run_sc ~lag:1 ~n:3 (fun (module P : Scs_prims.Prims_intf.S) ->
      let x = P.reg ~name:"x" 0 in
      [
        (fun () -> P.write x 1; P.write x 1);
        (* two writes: lag 1 exposes at least the first, pinning p1 at 1 *)
        (fun () ->
          first := P.read x;
          second := P.read x);
        (fun () -> ());
      ]);
  Alcotest.(check int) "first read" 1 !first;
  Alcotest.(check int) "no new/old inversion" 1 !second

let test_backend_sb_outcome_reachable () =
  (* the SB outcome — both processes read 0 — is reachable at lag 1 even
     under a fully sequential schedule: exactly the behaviour the
     history-level tests prove non-SC over the whole memory while each
     register stays SC *)
  let r0 = ref (-1) and r1 = ref (-1) in
  run_sc ~lag:1 ~n:2 (fun (module P : Scs_prims.Prims_intf.S) ->
      let x = P.reg ~name:"x" 0 and y = P.reg ~name:"y" 0 in
      [
        (fun () -> P.write x 1; r0 := P.read y);
        (fun () -> P.write y 1; r1 := P.read x);
      ]);
  Alcotest.(check int) "p0 misses p1's write" 0 !r0;
  Alcotest.(check int) "p1 misses p0's write" 0 !r1

let test_backend_rmw_stays_atomic () =
  (* RMW objects are linearizable on the SC backend regardless of lag:
     exactly one TAS winner, FAI never repeats a value *)
  let wins = ref 0 and a = ref (-1) and b = ref (-1) in
  run_sc ~lag:5 ~n:2 (fun (module P : Scs_prims.Prims_intf.S) ->
      let t = P.tas_obj ~name:"t" () in
      let f = P.fai_obj ~name:"f" 0 in
      [
        (fun () ->
          if not (P.test_and_set t) then incr wins;
          a := P.fetch_and_inc f);
        (fun () ->
          if not (P.test_and_set t) then incr wins;
          b := P.fetch_and_inc f);
      ]);
  Alcotest.(check int) "one TAS winner" 1 !wins;
  Alcotest.(check bool) "FAI values distinct" true (!a <> !b)

let test_backend_reset_clears_staleness () =
  (* [Sim.clear] plus a second setup builds a fresh log and views: a
     reused simulator must not leak the previous run's writes through a
     stale view *)
  let sim = Sim.create ~n:2 () in
  let observed = ref (-1) in
  let setup () =
    let module P = (val Scs_prims.Sc_prims.make ~lag:1 sim) in
    let x = P.reg ~name:"x" 0 in
    Sim.spawn sim 0 (fun () -> P.write x 7);
    Sim.spawn sim 1 (fun () -> observed := P.read x)
  in
  let seq = Policy.sequential () in
  setup ();
  Sim.run sim seq;
  Alcotest.(check int) "first run stale" 0 !observed;
  Sim.clear sim;
  observed := -1;
  setup ();
  Sim.run sim seq;
  Alcotest.(check int) "identical after clear" 0 !observed

let tests =
  [
    Alcotest.test_case "litmus: stale read is SC, not linearizable" `Quick
      test_stale_read_sc_not_lin;
    Alcotest.test_case "litmus: fresh read is both" `Quick test_fresh_read_both;
    Alcotest.test_case "litmus: new/old inversion is not SC" `Quick
      test_new_old_inversion_not_sc;
    Alcotest.test_case "litmus: independent stale readers are SC" `Quick
      test_stale_pair_reads_sc;
    Alcotest.test_case "litmus: out-of-thin-air value is not SC" `Quick
      test_read_from_nowhere_not_sc;
    Alcotest.test_case "litmus: pending write may or may not take effect" `Quick
      test_pending_write_may_take_effect;
    Alcotest.test_case "SB: global history not SC" `Quick test_sb_not_sc_globally;
    Alcotest.test_case "SB: both per-register projections SC (non-compositionality)"
      `Quick test_sb_projections_are_sc;
    Alcotest.test_case "MP: stale data behind set flag not SC" `Quick test_mp_not_sc;
    Alcotest.test_case "MP: fresh variant linearizable" `Quick
      test_mp_fresh_is_linearizable;
    Alcotest.test_case "backend: remote read stale at lag 1" `Quick
      test_backend_stale_read_at_lag1;
    Alcotest.test_case "backend: lag 0 observationally atomic" `Quick
      test_backend_lag0_is_atomic;
    Alcotest.test_case "backend: staleness bounded by lag" `Quick
      test_backend_lag_bounds_staleness;
    Alcotest.test_case "backend: own writes always visible" `Quick
      test_backend_own_writes_visible;
    Alcotest.test_case "backend: per-process views monotone" `Quick
      test_backend_views_monotone;
    Alcotest.test_case "backend: SB outcome reachable sequentially" `Quick
      test_backend_sb_outcome_reachable;
    Alcotest.test_case "backend: RMW objects stay atomic" `Quick
      test_backend_rmw_stays_atomic;
    Alcotest.test_case "backend: reset rewinds log and views" `Quick
      test_backend_reset_clears_staleness;
  ]
