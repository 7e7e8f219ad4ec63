(** T4 — AbortableBakery (Algorithm 4): Θ(n) solo step complexity (three
    collects per propose); commits in the absence of step contention. *)

open Scs_util
open Scs_sim
open Scs_composable
open Scs_workload

let run () =
  Exp_common.section "T4" "AbortableBakery: Θ(n) solo; commits absent step contention";
  let rows =
    List.map
      (fun n ->
        let s = Cons_run.solo_steps Cons_run.Bakery ~n in
        [ string_of_int n; string_of_int s; Exp_common.f2 (float_of_int s /. float_of_int n) ])
      Exp_common.solo_ns
  in
  Table.print
    ~title:"Solo decision cost (paper: linear in n; the ratio steps/n converges)"
    ~header:[ "n"; "solo steps"; "steps/n" ]
    rows;
  print_newline ();
  (* sequential = no step contention during each op: everyone commits *)
  let commits = ref 0 and total = ref 0 and aborts_rand = ref 0 and total_rand = ref 0 in
  for seed = 1 to 30 do
    let r = Cons_run.run ~seed ~n:8 ~algo:Cons_run.Bakery ~policy:(fun _ -> Policy.sequential ()) () in
    List.iter
      (fun (o : Cons_run.op) ->
        incr total;
        if Outcome.is_commit o.Cons_run.outcome then incr commits)
      r.Cons_run.ops;
    let r = Cons_run.run ~seed ~n:8 ~algo:Cons_run.Bakery ~policy:Policy.random () in
    List.iter
      (fun (o : Cons_run.op) ->
        incr total_rand;
        if Outcome.is_abort o.Cons_run.outcome then incr aborts_rand)
      r.Cons_run.ops
  done;
  Exp_common.note
    (Printf.sprintf
       "n=8: sequential commit rate %d/%d (paper: 100%%); random-schedule abort rate \
        %d/%d (contention can abort)"
       !commits !total !aborts_rand !total_rand)
