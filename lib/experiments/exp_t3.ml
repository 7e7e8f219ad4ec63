(** T3 — SplitConsensus (Algorithm 3): O(1) solo step complexity; commits
    in the absence of interval contention; aborts possible otherwise. *)

open Scs_util
open Scs_sim
open Scs_composable
open Scs_workload

let commit_rate ~algo ~n ~policy ~runs =
  let commits = ref 0 and total = ref 0 in
  for seed = 1 to runs do
    let r = Cons_run.run ~seed ~n ~algo ~policy () in
    List.iter
      (fun (o : Cons_run.op) ->
        incr total;
        match o.Cons_run.outcome with
        | Outcome.Commit (Some _) -> incr commits
        | Outcome.Commit None | Outcome.Abort _ -> ())
      r.Cons_run.ops
  done;
  100.0 *. float_of_int !commits /. float_of_int !total

let run () =
  Exp_common.section "T3" "SplitConsensus: O(1) solo; commits absent interval contention";
  let rows =
    List.map
      (fun n ->
        [ string_of_int n; string_of_int (Cons_run.solo_steps Cons_run.Split ~n) ])
      Exp_common.solo_ns
  in
  Table.print ~title:"Solo decision cost (paper: constant)" ~header:[ "n"; "solo steps" ] rows;
  print_newline ();
  let rows =
    List.map
      (fun n ->
        [
          string_of_int n;
          Printf.sprintf "%.1f%%"
            (commit_rate ~algo:Cons_run.Split ~n ~policy:(fun _ -> Policy.sequential ())
               ~runs:30);
          Printf.sprintf "%.1f%%"
            (commit_rate ~algo:Cons_run.Split ~n ~policy:Policy.random ~runs:100);
        ])
      [ 2; 4; 8 ]
  in
  Table.print
    ~title:
      "Commit rate (paper: 100% without interval contention; may abort under contention)"
    ~header:[ "n"; "sequential"; "random schedules" ]
    rows
