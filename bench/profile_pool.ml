(* Decomposition microbenchmark for the pooled measurement engine:
   where does a pooled run's time go (reset / rng chain / bare effect
   loop / obs instrumentation / fiber starts / allocation)?

   Not part of the test or bench suites — run by hand while tuning:
     dune exec bench/profile_pool.exe
   The numbers quoted in EXPERIMENTS.md T14 ("where the time went")
   come from this tool on the dev container. *)

open Scs_sim
open Scs_util
module Obs = Scs_obs.Obs

let time label f =
  let t0 = Unix.gettimeofday () in
  let runs = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-32s %8d runs  %8.0f runs/s  %7.2f us/run\n%!" label runs
    (float_of_int runs /. dt)
    (dt /. float_of_int runs *. 1e6)

let n = 4
let runs = 50_000

let install_spec ~obs sim =
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module OS = Scs_tas.One_shot.Make (P) in
  let os = OS.create ~strict:false ~name:"tas" () in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        Obs.op_begin obs ~pid ~obj:0 ~label:"tas";
        (match OS.A1m.apply (OS.a1 os) ~pid None with
        | Scs_composable.Outcome.Commit _ -> ()
        | Scs_composable.Outcome.Abort v -> (
            Obs.abort obs ~pid;
            Obs.handoff obs ~pid ~label:"a1->a2";
            match OS.A2m.apply (OS.a2 os) ~pid (Some v) with
            | Scs_composable.Outcome.Commit _ -> ()
            | Scs_composable.Outcome.Abort _ -> assert false));
        Obs.op_end obs ~pid ~aborted:false)
  done

let () =
  (* A: reset + run, obs enabled, fixed rng stream *)
  let obs = Obs.create ~record_ring:false ~n () in
  let sim = Sim.create ~obs ~n () in
  install_spec ~obs sim;
  Sim.snapshot sim;
  let prng = Rng.create 42 in
  time "A reset+run obs" (fun () ->
      for i = 1 to runs do
        if i > 1 then Sim.reset sim;
        Sim.run sim (Policy.random (Rng.split prng))
      done;
      runs);

  (* B: same, obs disabled *)
  let sim2 = Sim.create ~n () in
  install_spec ~obs:Obs.null sim2;
  Sim.snapshot sim2;
  let prng = Rng.create 42 in
  time "B reset+run no-obs" (fun () ->
      for i = 1 to runs do
        if i > 1 then Sim.reset sim2;
        Sim.run sim2 (Policy.random (Rng.split prng))
      done;
      runs);

  (* C: reset only *)
  time "C reset only" (fun () ->
      for _ = 1 to runs do
        Sim.reset sim2
      done;
      runs);

  (* D: rng chain only (crash draws + seed + rng2 + split) *)
  let prng = Rng.create 42 in
  time "D rng chain only" (fun () ->
      for _ = 1 to runs do
        let rng = Rng.split prng in
        (* crash_prob 0: one bernoulli draw per pid *)
        for _ = 0 to n - 1 do
          ignore (Rng.float rng)
        done;
        let seed = Rng.int rng 0x3FFFFFFF in
        let rng2 = Rng.create seed in
        ignore (Rng.split rng2)
      done;
      runs);

  (* F: fresh sim per run (the shape pooling replaced) *)
  let obs4 = Obs.create ~n () in
  let prng = Rng.create 42 in
  time "F fresh create+install+run" (fun () ->
      for _ = 1 to runs do
        let sim = Sim.create ~obs:obs4 ~n () in
        install_spec ~obs:obs4 sim;
        Sim.run sim (Policy.random (Rng.split prng))
      done;
      runs)

(* G/H: separate per-fiber-start cost from per-memory-step cost *)
let () =
  let mk_sim steps_per_fiber =
    let sim = Sim.create ~n () in
    let r = Sim.reg sim ~name:"r" 0 in
    for pid = 0 to n - 1 do
      Sim.spawn sim pid (fun () ->
          for _ = 1 to steps_per_fiber do
            Sim.write r 1
          done)
    done;
    Sim.snapshot sim;
    sim
  in
  let bench label steps_per_fiber =
    let sim = mk_sim steps_per_fiber in
    let prng = Rng.create 42 in
    time label (fun () ->
        for i = 1 to runs do
          if i > 1 then Sim.reset sim;
          Sim.run sim (Policy.random (Rng.split prng))
        done;
        runs)
  in
  bench "G 4 fibers x 1 step" 1;
  bench "H 4 fibers x 10 steps" 10;
  bench "I 4 fibers x 30 steps" 30

(* J: allocation per run for the pooled speculative chain *)
let () =
  let obs = Obs.create ~record_ring:false ~n () in
  let sim = Sim.create ~obs ~n () in
  install_spec ~obs sim;
  Sim.snapshot sim;
  let prng = Rng.create 42 in
  let w0 = Gc.minor_words () in
  for i = 1 to runs do
    if i > 1 then Sim.reset sim;
    Sim.run sim (Policy.random (Rng.split prng))
  done;
  let w1 = Gc.minor_words () in
  Printf.printf "J alloc/run: %.0f words\n%!" ((w1 -. w0) /. float_of_int runs);
  (* K: trivial workload alloc/run *)
  let sim2 = Sim.create ~n () in
  let r = Sim.reg sim2 ~name:"r" 0 in
  for pid = 0 to n - 1 do
    Sim.spawn sim2 pid (fun () -> Sim.write r 1)
  done;
  Sim.snapshot sim2;
  let prng = Rng.create 42 in
  let w0 = Gc.minor_words () in
  for i = 1 to runs do
    if i > 1 then Sim.reset sim2;
    Sim.run sim2 (Policy.random (Rng.split prng))
  done;
  let w1 = Gc.minor_words () in
  Printf.printf "K alloc/run (4x1 write): %.0f words\n%!" ((w1 -. w0) /. float_of_int runs)
