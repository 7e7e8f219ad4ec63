(** T13 — Observability layer: the complexity claims, measured.

    The obs sink (lib/obs) turns the paper's quantitative claims into
    numbers: A1's solo step count is independent of n (Theorem 3),
    AbortableBakery's solo step count is linear in n (Appendix A), and
    abort rates track the *measured* contention class each algorithm is
    sensitive to — SplitConsensus commits whenever its measured interval
    contention is 0, AbortableBakery whenever its measured step
    contention is 0.

    Reproduce with: dune exec bin/scs.exe -- experiment T13
    (per-table one-liners are printed in EXPERIMENTS.md). *)

open Scs_util
open Scs_sim
open Scs_workload

(* Solo cost sweep: A1 flat, bakery linear. Uses Obs_run.solo — one
   process runs to completion alone, its op bracket is the sample. *)
let solo_table () =
  let rows =
    List.map
      (fun n ->
        let a1 = Obs_run.solo Obs_run.A1 ~n in
        let bak = Obs_run.solo (Obs_run.Cons Cons_run.Bakery) ~n in
        let split = Obs_run.solo (Obs_run.Cons Cons_run.Split) ~n in
        let steps a = int_of_float a.Obs_run.steps.Stats.median in
        [
          string_of_int n;
          string_of_int (steps a1);
          string_of_int (steps split);
          string_of_int (steps bak);
          Exp_common.f2 (float_of_int (steps bak) /. float_of_int n);
          string_of_int a1.Obs_run.max_interval_contention;
        ])
      Exp_common.solo_ns
  in
  Table.print
    ~title:
      "Solo step counts measured by the obs sink (paper: A1 and SplitConsensus O(1), AbortableBakery O(n))"
    ~header:[ "n"; "A1 steps"; "split steps"; "bakery steps"; "bakery/n"; "ivl cont" ]
    rows

(* Abort count bucketed by the *run's* measured contention. The
   contention flags of both algorithms are sticky object state (split's
   [C], bakery's [Quit]): one contended interval can make later,
   individually-uncontended operations abort, so the per-operation
   version of the progress claim is not what the algorithms guarantee.
   The checkable invariant is run-level — a run whose measured maximum
   interval contention is 0 (brackets never overlap: a sequential
   execution) must have zero aborts. *)
let run_buckets ~algo ~runs ~n ~pick_run =
  let buckets = Hashtbl.create 8 in
  let policies =
    (fun _rng -> Policy.sequential ())
    :: List.map
         (fun p rng -> Policy.sticky rng ~switch_prob:p)
         [ 0.02; 0.1; 0.3; 0.6 ]
  in
  List.iteri
    (fun pi policy ->
      for seed = 1 to runs do
        let obs = Scs_obs.Obs.create ~n () in
        ignore (Cons_run.run ~seed:(seed + (1000 * pi)) ~obs ~n ~algo ~policy ());
        let c = pick_run obs in
        let ops = List.length (Scs_obs.Obs.op_metrics obs) in
        let aborts = Scs_obs.Obs.total_aborts obs in
        let o0, a0 = Option.value ~default:(0, 0) (Hashtbl.find_opt buckets c) in
        Hashtbl.replace buckets c (o0 + ops, a0 + aborts)
      done)
    policies;
  Hashtbl.fold (fun c v acc -> (c, v) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Abort rate bucketed by the measured contention of each operation.
   [pick] selects which estimator the algorithm's progress claim is
   stated against. *)
let contention_buckets ~algo ~pick ~runs ~n =
  let buckets = Hashtbl.create 8 in
  (* sweep stickiness to produce a wide range of contention levels *)
  List.iter
    (fun switch_prob ->
      let agg =
        Obs_run.measure ~runs ~seed:(7 + int_of_float (100.0 *. switch_prob))
          ~policy:(fun rng -> Policy.sticky rng ~switch_prob)
          (Obs_run.Cons algo) ~n
      in
      List.iter
        (fun (m : Scs_obs.Obs.op_metric) ->
          let c = pick m in
          let total, aborted =
            Option.value ~default:(0, 0) (Hashtbl.find_opt buckets c)
          in
          Hashtbl.replace buckets c
            (total + 1, aborted + if m.Scs_obs.Obs.om_aborted then 1 else 0))
        agg.Obs_run.ops)
    [ 0.02; 0.1; 0.3; 0.6 ];
  Hashtbl.fold (fun c v acc -> (c, v) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let bucket_rows buckets =
  (* group the tail so the table stays small *)
  let labelled =
    List.map
      (fun (c, (total, aborted)) ->
        let label = if c = 0 then "0" else if c <= 2 then string_of_int c else "3+" in
        (label, total, aborted))
      buckets
  in
  let merged = Hashtbl.create 4 in
  List.iter
    (fun (label, total, aborted) ->
      let t0, a0 = Option.value ~default:(0, 0) (Hashtbl.find_opt merged label) in
      Hashtbl.replace merged label (t0 + total, a0 + aborted))
    labelled;
  List.filter_map
    (fun label ->
      match Hashtbl.find_opt merged label with
      | None -> None
      | Some (total, aborted) ->
          Some
            [
              label;
              string_of_int total;
              string_of_int aborted;
              Printf.sprintf "%.1f%%" (100.0 *. float_of_int aborted /. float_of_int total);
            ])
    [ "0"; "1"; "2"; "3+" ]

let abort_vs_contention () =
  let n = 4 and runs = 80 in
  let pick_run obs = Scs_obs.Obs.max_interval_contention obs in
  let split_runs = run_buckets ~algo:Cons_run.Split ~runs ~n ~pick_run in
  Table.print
    ~title:
      "SplitConsensus: aborts vs the run's measured max interval contention (Appendix A: an interval-contention-free run commits everything)"
    ~header:[ "run ivl cont"; "ops"; "aborts"; "abort rate" ]
    (bucket_rows split_runs);
  print_newline ();
  let bak_runs = run_buckets ~algo:Cons_run.Bakery ~runs ~n ~pick_run in
  Table.print
    ~title:
      "AbortableBakery: aborts vs the run's measured max interval contention (step-contention-free sequential runs commit everything)"
    ~header:[ "run ivl cont"; "ops"; "aborts"; "abort rate" ]
    (bucket_rows bak_runs);
  (* the headline invariant, asserted not just printed *)
  let zero_bucket_clean buckets =
    match List.assoc_opt 0 buckets with
    | None -> true
    | Some (_, aborted) -> aborted = 0
  in
  if not (zero_bucket_clean split_runs) then
    Exp_common.note
      "VIOLATION: SplitConsensus aborted in an interval-contention-free run";
  if not (zero_bucket_clean bak_runs) then
    Exp_common.note
      "VIOLATION: AbortableBakery aborted in an interval-contention-free run";
  print_newline ();
  (* per-operation trend: abort rate rises with the op's own measured
     contention; the sticky flags mean the zero bucket need not be 0%
     here, which is exactly why the invariant above is run-level *)
  let split_ops =
    contention_buckets ~algo:Cons_run.Split
      ~pick:(fun m -> m.Scs_obs.Obs.om_interval_contention)
      ~runs:100 ~n
  in
  Table.print
    ~title:
      "Per-operation trend: SplitConsensus abort rate vs the op's own interval contention (sticky C flag carries earlier contention forward)"
    ~header:[ "op ivl cont"; "ops"; "aborts"; "abort rate" ]
    (bucket_rows split_ops)

(* Composed TAS under contention, as the obs sink sees it: per-op step
   percentiles, estimator maxima, switch-value handoffs. *)
let composed_profile () =
  let rows =
    List.map
      (fun n ->
        let a = Obs_run.measure ~runs:150 (Obs_run.Tas Tas_run.Composed) ~n in
        [
          string_of_int n;
          string_of_int (List.length a.Obs_run.ops);
          Exp_common.f1 a.Obs_run.steps.Stats.median;
          Exp_common.f1 a.Obs_run.steps.Stats.p99;
          string_of_int a.Obs_run.max_interval_contention;
          string_of_int a.Obs_run.aborts;
          string_of_int a.Obs_run.handoffs;
        ])
      [ 2; 4; 8 ]
  in
  Table.print
    ~title:"Speculative TAS under random schedules, measured by the obs sink"
    ~header:[ "n"; "ops"; "p50 steps"; "p99 steps"; "max ivl cont"; "aborts"; "handoffs" ]
    rows

let run () =
  Exp_common.section "T13" "Observability layer: complexity claims, measured";
  solo_table ();
  print_newline ();
  abort_vs_contention ();
  print_newline ();
  composed_profile ()
