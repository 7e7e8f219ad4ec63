(* The benchmark harness.

   Part 1 replays every registered experiment of EXPERIMENTS.md (T1–T13,
   F1): deterministic simulator measurements of the complexity quantities
   the paper claims. Native throughput is measured elsewhere: F2 and the
   TAS and chain loops by `scs load`, the composed UC and the sharded
   service by the repository benchmark (benchmark/scsbench.exe).

   Part 2 runs Bechamel wall-clock microbenchmarks of the native backend —
   one Test.make per table row family — reporting ns/op estimated by OLS.

   Usage: main.exe            run everything
          main.exe T2 F1 ...  run selected experiments only *)

open Bechamel
open Toolkit

(* ---- Part 2: native microbenchmarks ---------------------------------- *)

module P = Scs_prims.Native_prims
module OS = Scs_tas.One_shot.Make (P)
module B = Scs_tas.Baselines.Make (P)
module L = Scs_tas.Locks.Make (P)
module SC = Scs_consensus.Split_consensus.Make (P)
module Sp = Scs_consensus.Splitter.Make (P)

let bench_speculative_cycle ~strict () =
  (* uncontended one-shot win + quiescent reinitialisation: the steady-
     state cost of a long-lived round without preallocating the round
     array (see One_shot.harness_reset) *)
  let os = OS.create ~strict ~name:"b" () in
  Staged.stage (fun () ->
      ignore (OS.test_and_set os ~pid:0);
      OS.harness_reset os)

let bench_hardware_cycle () =
  let hw = B.Hardware.create ~name:"b" () in
  Staged.stage (fun () ->
      match B.Hardware.test_and_set hw ~pid:0 with
      | Scs_spec.Objects.Winner -> B.Hardware.reset hw
      | Scs_spec.Objects.Loser -> ())

let bench_ttas_cycle () =
  let l = L.Ttas.create ~name:"b" () in
  Staged.stage (fun () ->
      L.Ttas.acquire l;
      L.Ttas.release l)

let bench_speculative_lock_cycle () =
  (* 4M rounds preallocated (~0.5 GB would be too much; each round is a
     few words, so 4M ≈ 200 MB is still heavy — bound the bench instead
     with a modest round pool and a modulo guard) *)
  let rounds = 2_000_000 in
  let l = L.Speculative.create ~name:"b" ~rounds () in
  let h = L.Speculative.handle l ~pid:0 in
  let used = ref 0 in
  Staged.stage (fun () ->
      if !used < rounds - 2 then begin
        incr used;
        L.Speculative.acquire h;
        L.Speculative.release h
      end)

let bench_splitter_cycle () =
  let s = Sp.create ~name:"b" () in
  Staged.stage (fun () ->
      ignore (Sp.split s ~pid:0);
      Sp.reset s)

let bench_split_consensus () =
  (* includes instance allocation: a fresh consensus per decision *)
  Staged.stage (fun () ->
      let c = SC.create ~name:"b" () in
      let i = SC.instance c in
      ignore (i.Scs_consensus.Consensus_intf.run ~pid:0 ~old:None 42))

(* One fixed shuffled 40-op queue history (width 6) — the microbench view
   of experiment T12's table. *)
let lin_bench_ops =
  lazy
    (Scs_experiments.Exp_t12.queue_history (Scs_util.Rng.create 42) ~size:40 ~width:6)

let bench_lin_scalable () =
  let ops = Lazy.force lin_bench_ops in
  Staged.stage (fun () ->
      assert (Scs_history.Linearize.check_operations Scs_spec.Objects.queue ops))

(* The zipfian CDF at a realistic keyspace: a cold build pays one [**]
   per key; the shared table (what every load driver instance and
   domain reuses) amortises it to a hashtable hit. *)
let zipf_keys = 1_000_000

let bench_zipf_cdf_cold () =
  let module Mx = Scs_load.Mix in
  Staged.stage (fun () ->
      ignore (Mx.make_cold ~read_ratio:0.5 ~keys:zipf_keys ~skew:(Mx.Zipfian 0.99)))

let bench_zipf_cdf_shared () =
  let module Mx = Scs_load.Mix in
  (* warm the cache outside the measured closure *)
  ignore (Mx.zipf_cdf ~keys:zipf_keys ~theta:0.99);
  Staged.stage (fun () ->
      ignore (Mx.make ~read_ratio:0.5 ~keys:zipf_keys ~skew:(Mx.Zipfian 0.99)))

let tests () =
  Test.make_grouped ~name:"native"
    [
      Test.make ~name:"F2 speculative tas cycle (uncontended)"
        (bench_speculative_cycle ~strict:false ());
      Test.make ~name:"F2 strict tas cycle (uncontended)"
        (bench_speculative_cycle ~strict:true ());
      Test.make ~name:"F2 hardware tas cycle" (bench_hardware_cycle ());
      Test.make ~name:"F2 ttas lock cycle" (bench_ttas_cycle ());
      Test.make ~name:"F2 speculative lock cycle" (bench_speculative_lock_cycle ());
      Test.make ~name:"T1 splitter split+reset" (bench_splitter_cycle ());
      Test.make ~name:"T3 split-consensus solo decide (incl. alloc)" (bench_split_consensus ());
      Test.make ~name:"T12 lin-check 40-op queue (scalable)" (bench_lin_scalable ());
      Test.make ~name:"S1 zipf cdf 1e6 keys (cold build)" (bench_zipf_cdf_cold ());
      Test.make ~name:"S1 zipf cdf 1e6 keys (shared table)" (bench_zipf_cdf_shared ());
    ]

let run_microbenches () =
  Scs_experiments.Exp_common.section "BECHAMEL"
    "native wall-clock microbenchmarks (ns/op, OLS)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ~compaction:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (tests ()) in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Printf.sprintf "%.1f" x
        | _ -> "n/a"
      in
      rows := [ name; ns ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Scs_util.Table.print ~header:[ "benchmark"; "ns/op" ] rows

(* ---- main -------------------------------------------------------------- *)

let () =
  (match Array.to_list Sys.argv with
  | _ :: (_ :: _ as ids) ->
      List.iter
        (fun id ->
          match Scs_experiments.Registry.find id with
          | Some e -> e.Scs_experiments.Registry.run ()
          | None -> Printf.eprintf "unknown experiment id %s\n" id)
        ids
  | _ ->
      Scs_experiments.Registry.run_all ();
      (try run_microbenches ()
       with e -> Printf.printf "microbenchmarks failed: %s\n" (Printexc.to_string e)));
  print_newline ()
