(** T2 — The composed speculative TAS (Theorem 4): wait-free, constant
    steps when uncontended, O(1) switch cost, negligible composition
    overhead compared to the baselines. *)

open Scs_util
open Scs_sim
open Scs_workload

let algo_row ~algo ~n ~policy_name ~policy =
  let all_ops = ref [] in
  for seed = 1 to 50 do
    let r = Tas_run.one_shot ~seed ~n ~algo ~policy () in
    all_ops := r.Tas_run.ops @ !all_ops
  done;
  let ops = !all_ops in
  [
    Tas_run.algo_name algo;
    policy_name;
    string_of_int n;
    Exp_common.f2 (Exp_common.mean_steps ops);
    Exp_common.f2 (Exp_common.mean_rmws ops);
    Exp_common.f2 (Exp_common.mean_raws ops);
    Printf.sprintf "%.0f%%" (100.0 *. Exp_common.fast_fraction ops);
  ]

let switch_cost ~n =
  (* steps spent after the abort of A1 (the A2 part), for operations that
     fell back: entering A2 costs O(1) *)
  let fallback_steps = ref [] in
  for seed = 1 to 80 do
    let r = Tas_run.one_shot ~seed ~n ~algo:Tas_run.Composed ~policy:Policy.random () in
    List.iter
      (fun (o : Tas_run.op_record) ->
        if o.Tas_run.stage = Some Scs_tas.One_shot.Fallback then
          fallback_steps := o.Tas_run.steps :: !fallback_steps)
      r.Tas_run.ops
  done;
  match !fallback_steps with
  | [] -> (0.0, 0)
  | l ->
      ( float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l),
        List.fold_left max 0 l )

(* process counts of the switch-cost sweep *)
let ns = [ 2; 4; 8; 16; 32 ]

let run () =
  Exp_common.section "T2" "Composed TAS: step complexity by contention, vs baselines";
  let seq_name = "sequential" and rnd_name = "random" in
  let rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun algo ->
            [
              algo_row ~algo ~n ~policy_name:seq_name ~policy:(fun _ -> Policy.sequential ());
              algo_row ~algo ~n ~policy_name:rnd_name ~policy:Policy.random;
            ])
          [ Tas_run.Composed; Tas_run.Strict; Tas_run.Hardware; Tas_run.Tournament ])
      [ 4; 16 ]
  in
  Table.print
    ~title:
      "Mean per-operation cost over 50 seeds (paper: composed ≈ hardware-free when \
       uncontended; only the tournament's winner climbs its Θ(log n) tree, a \
       process that finds its doorway closed loses in one read; hardware pays 1 AWAR \
       always)"
    ~header:[ "algorithm"; "schedule"; "n"; "steps"; "RMWs"; "RAWs"; "fast-path %" ]
    rows;
  print_newline ();
  let rows =
    List.map
      (fun n ->
        let mean, mx = switch_cost ~n in
        [ string_of_int n; Exp_common.f2 mean; string_of_int mx ])
      ns
  in
  Table.print
    ~title:
      "Total steps of operations that switched to the hardware module (paper: switch cost \
       is a small constant, independent of n)"
    ~header:[ "n"; "mean steps (abort+A2)"; "max" ]
    rows
