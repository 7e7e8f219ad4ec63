(** T1 — Module A1: constant step and space complexity; aborts only under
    step contention (Algorithm 1, Lemma 6).

    Paper claim: A1 has O(1) step and space complexity independent of n,
    and never aborts in the absence of step contention. *)

open Scs_util
open Scs_sim
open Scs_composable

let solo_profile ~n =
  let sim = Sim.create ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module A1 = Scs_tas.A1.Make (P) in
  let a1 = A1.create ~name:"a1" () in
  Sim.spawn sim 0 (fun () -> ignore (A1.apply a1 ~pid:0 None));
  Sim.run sim (Policy.solo 0);
  (Sim.steps_of sim 0, Sim.objects_allocated sim, Sim.rmws_of sim 0, Sim.raw_fences_of sim 0)

let abort_census ~n ~runs =
  (* random schedules; classify aborts: first-person (the aborting op saw
     another process step inside its interval) vs solidarity (somebody
     else experienced the contention — the behaviour Appendix B's
     solo-fast variant removes); and check no abort happens in an
     execution with no step contention at all (Lemma 6) *)
  let aborts = ref 0 and ops = ref 0 and solidarity = ref 0 and lemma6_violations = ref 0 in
  for seed = 1 to runs do
    let sim = Sim.create ~n () in
    Sim.set_trace sim true;
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let module A1 = Scs_tas.A1.Make (P) in
    let a1 = A1.create ~name:"a1" () in
    let intervals = ref [] in
    for pid = 0 to n - 1 do
      Sim.spawn sim pid (fun () ->
          let t0 = Sim.clock sim in
          let outcome = A1.apply a1 ~pid None in
          intervals :=
            (outcome, { Detect.pid; start_ts = t0; end_ts = Sim.clock sim }) :: !intervals)
    done;
    Sim.run sim (Policy.random (Rng.create seed));
    let mem = Sim.trace_arr sim in
    let any_contention =
      List.exists (fun (_, iv) -> Detect.step_contended mem iv) !intervals
    in
    let any_abort =
      List.exists (fun (o, _) -> match o with Outcome.Abort _ -> true | _ -> false) !intervals
    in
    if any_abort && not any_contention then incr lemma6_violations;
    List.iter
      (fun (outcome, iv) ->
        incr ops;
        match outcome with
        | Outcome.Abort _ ->
            incr aborts;
            if not (Detect.step_contended mem iv) then incr solidarity
        | Outcome.Commit _ -> ())
      !intervals
  done;
  (!ops, !aborts, !solidarity, !lemma6_violations)

let run () =
  Exp_common.section "T1" "Module A1: O(1) steps and space; aborts need step contention";
  let rows =
    List.map
      (fun n ->
        let steps, objs, rmws, raws = solo_profile ~n in
        [
          string_of_int n;
          string_of_int steps;
          string_of_int objs;
          string_of_int rmws;
          string_of_int raws;
        ])
      Exp_common.solo_ns
  in
  Table.print
    ~title:"Solo operation cost vs number of processes (paper: constant, registers only)"
    ~header:[ "n"; "solo steps"; "registers"; "RMWs"; "RAW fences" ]
    rows;
  print_newline ();
  let rows =
    List.map
      (fun n ->
        let ops, aborts, solidarity, lemma6 = abort_census ~n ~runs:200 in
        [
          string_of_int n;
          string_of_int ops;
          string_of_int aborts;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int aborts /. float_of_int ops);
          string_of_int solidarity;
          string_of_int lemma6;
        ])
      [ 2; 4; 8 ]
  in
  Table.print
    ~title:
      "Abort census over 200 random schedules (Lemma 6: no abort in a contention-free        execution; solidarity aborts are the behaviour Appendix B removes)"
    ~header:
      [ "n"; "ops"; "aborts"; "abort rate"; "solidarity aborts"; "Lemma 6 violations" ]
    rows
