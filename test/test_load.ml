(* The native load harness: workload mixes, the backend-agnostic driver
   checked under the simulator, and a short real-domain engine smoke for
   each acceptance family. *)

module Load = Scs_load.Load
module Mix = Scs_load.Mix

let test_mix_profiles () =
  Alcotest.(check (float 0.)) "A" 0.5 (Mix.profile_read_ratio Mix.A);
  Alcotest.(check (float 0.)) "B" 0.95 (Mix.profile_read_ratio Mix.B);
  Alcotest.(check (float 0.)) "C" 1.0 (Mix.profile_read_ratio Mix.C);
  Alcotest.(check (float 0.)) "U" 0.0 (Mix.profile_read_ratio Mix.U);
  List.iter
    (fun (s, p) ->
      match Mix.profile_of_string s with
      | Some p' when p' = p -> ()
      | _ -> Alcotest.failf "profile_of_string %S" s)
    [ ("a", Mix.A); ("B", Mix.B); ("c", Mix.C); ("u", Mix.U) ];
  Alcotest.(check bool) "unknown rejected" true (Mix.profile_of_string "z" = None)

let test_mix_sampling () =
  let keys = 16 in
  let mix = Mix.make ~read_ratio:0.5 ~keys ~skew:(Mix.Zipfian 0.99) in
  let rng = Scs_util.Rng.create 7 in
  let hits = Array.make keys 0 in
  let reads = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Mix.is_read mix rng then incr reads;
    let k = Mix.sample_key mix rng in
    if k < 0 || k >= keys then Alcotest.failf "key %d out of range" k;
    hits.(k) <- hits.(k) + 1
  done;
  (* the zipfian head must dominate the tail *)
  Alcotest.(check bool) "skewed head" true (hits.(0) > hits.(keys - 1) * 4);
  let ratio = float_of_int !reads /. float_of_int n in
  if ratio < 0.45 || ratio > 0.55 then Alcotest.failf "read ratio drifted: %.3f" ratio;
  (* uniform: no key should starve *)
  let u = Mix.make ~read_ratio:0.0 ~keys ~skew:Mix.Uniform in
  let uh = Array.make keys 0 in
  for _ = 1 to n do
    let k = Mix.sample_key u rng in
    uh.(k) <- uh.(k) + 1
  done;
  Array.iteri (fun k c -> if c = 0 then Alcotest.failf "uniform starved key %d" k) uh

let test_workload_names_roundtrip () =
  List.iter
    (fun w ->
      match Load.workload_of_string (Load.workload_name w) with
      | Some w' when w' = w -> ()
      | _ -> Alcotest.failf "name round-trip failed for %s" (Load.workload_name w))
    Load.all_workloads;
  (* the acceptance families partition into known workloads *)
  let fam = List.concat_map snd Load.workload_families in
  List.iter
    (fun w ->
      if not (List.mem w Load.all_workloads) then
        Alcotest.failf "family workload %s not in all_workloads" (Load.workload_name w))
    fam;
  Alcotest.(check int) "two families" 2 (List.length Load.workload_families)

let test_flag_encoding () =
  Alcotest.(check int) "win" 1 Load.f_win;
  Alcotest.(check int) "reset" 2 Load.f_reset;
  Alcotest.(check int) "recycle" 4 Load.f_recycle;
  let w = Load.f_win lor Load.f_reset lor 0x300 lor 0x20000 in
  Alcotest.(check int) "aborts field" 3 (Load.flag_aborts w);
  Alcotest.(check int) "handoffs field" 2 (Load.flag_handoffs w)

(* Tentpole seam check: the exact driver code that runs on domains also
   runs under the simulator, where its per-workload invariants (unique
   winners per one-shot instance, every long-lived update winning solo,
   zero aborts without contention) are checked deterministically. *)
let test_sim_selfcheck () =
  List.iter
    (fun w ->
      if not (Load.sim_selfcheck ~seed:3 ~n:3 ~ops_per_proc:5 w) then
        Alcotest.failf "sim selfcheck failed for %s" (Load.workload_name w))
    Load.all_workloads

(* A long-lived TAS whose rounds run out answers with a recycle request,
   not an exception; the driver catches only that failure. *)
let test_long_lived_exhausted () =
  let module D = Load.Driver (Scs_prims.Native_prims) in
  let cfg =
    {
      (Load.default_cfg ~workload:Load.Speculative ~domains:1) with
      Load.mix = Mix.make ~read_ratio:0.0 ~keys:1 ~skew:Mix.Uniform;
      rounds = 2;
    }
  in
  let inst = D.make cfg in
  let rng = Scs_util.Rng.create 1 in
  let update () = inst.Load.i_update ~pid:0 ~key:0 ~rng in
  for _ = 1 to 2 do
    Alcotest.(check bool) "round won" true (update () land Load.f_win <> 0)
  done;
  Alcotest.(check int) "exhausted: recycle only" Load.f_recycle (update ());
  inst.Load.i_recycle ();
  Alcotest.(check bool) "won after recycle" true (update () land Load.f_win <> 0)

let check_result (r : Load.result) =
  if r.Load.r_ops <= 0 then Alcotest.failf "%s: no ops completed" r.Load.r_label;
  Alcotest.(check int) "ops = reads + updates" r.Load.r_ops
    (r.Load.r_reads + r.Load.r_updates);
  if r.Load.r_elapsed_s <= 0. then Alcotest.fail "elapsed <= 0";
  if r.Load.r_ops_per_sec <= 0. then Alcotest.fail "throughput <= 0";
  if r.Load.r_p50_us > r.Load.r_p99_us +. 1e-9 then Alcotest.fail "p50 > p99";
  if r.Load.r_p99_us > r.Load.r_p999_us +. 1e-9 then Alcotest.fail "p99 > p999";
  if r.Load.r_p999_us > r.Load.r_max_us +. 1e-9 then Alcotest.fail "p999 > max";
  if r.Load.r_abort_rate < 0. then Alcotest.fail "negative abort rate"

let smoke_cfg workload =
  {
    (Load.default_cfg ~workload ~domains:2) with
    Load.warmup_s = 0.02;
    duration_s = 0.08;
  }

(* one representative per acceptance family, on two real domains (they
   time-share on small hosts; correctness is unaffected) *)
let test_engine_smoke_tas () = check_result (Load.run (smoke_cfg Load.Speculative))

(* the chain closed loop recycles its consensus arena; on a contended
   1-core host an 80ms window can elapse inside one recycle, so it gets
   a longer window *)
let test_engine_smoke_chain () =
  check_result (Load.run { (smoke_cfg Load.Chain) with Load.duration_s = 0.4 })

let test_to_record () =
  let r = Load.run (smoke_cfg Load.Hardware) in
  check_result r;
  let rec_ = Load.to_record r in
  (match rec_.Scs_obs.Trajectory.native with
  | None -> Alcotest.fail "native sub-record missing"
  | Some nv ->
      Alcotest.(check string) "backend" "native" nv.Scs_obs.Trajectory.backend;
      Alcotest.(check int) "domains" 2 nv.Scs_obs.Trajectory.domains;
      Alcotest.(check bool) "throughput copied" true
        (nv.Scs_obs.Trajectory.ops_per_sec = r.Load.r_ops_per_sec));
  (* the record must survive the schema round trip *)
  let file = Filename.temp_file "scs_load" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Scs_obs.Trajectory.save file
        { Scs_obs.Trajectory.run = "test"; seed = 0; records = [ rec_ ] };
      match Scs_obs.Trajectory.load file with
      | Ok (Scs_obs.Trajectory.Trajectory t) ->
          Alcotest.(check int) "one record" 1 (List.length t.Scs_obs.Trajectory.records)
      | Ok (Scs_obs.Trajectory.Suite_pair _) -> Alcotest.fail "read back as a suite pair"
      | Error e -> Alcotest.failf "native record failed validation: %s" e)

let tests =
  [
    Alcotest.test_case "mix profiles" `Quick test_mix_profiles;
    Alcotest.test_case "mix sampling" `Quick test_mix_sampling;
    Alcotest.test_case "workload names round-trip" `Quick test_workload_names_roundtrip;
    Alcotest.test_case "driver flag encoding" `Quick test_flag_encoding;
    Alcotest.test_case "driver selfcheck on sim backend (all workloads)" `Quick
      test_sim_selfcheck;
    Alcotest.test_case "long-lived driver: exhausted rounds request a recycle" `Quick
      test_long_lived_exhausted;
    Alcotest.test_case "engine smoke: tas family (2 domains)" `Quick
      test_engine_smoke_tas;
    Alcotest.test_case "engine smoke: chain family (2 domains)" `Quick
      test_engine_smoke_chain;
    Alcotest.test_case "native trajectory record round-trip" `Quick test_to_record;
  ]
