let () =
  Alcotest.run "repro"
    [
      ("util", Test_util.tests);
      ("sim", Test_sim.tests);
      ("explore", Test_explore.tests);
      ("spec", Test_spec.tests);
      ("history", Test_history.tests);
      ("linearize-diff", Test_linearize_diff.tests);
      ("sc", Test_sc.tests);
      ("splitter", Test_splitter.tests);
      ("consensus", Test_consensus.tests);
      ("a1", Test_a1.tests);
      ("composed", Test_composed.tests);
      ("findings", Test_findings.tests);
      ("long_lived", Test_long_lived.tests);
      ("universal", Test_universal.tests);
      ("typed-diff", Test_universal.diff_tests);
      ("locks", Test_locks.tests);
      ("native", Test_native.tests);
      ("prims-parity", Test_prims.tests);
      ("hist", Test_hist.tests);
      ("load", Test_load.tests);
      ("shard", Test_shard.tests);
      ("batcher", Test_shard.battery_tests);
      ("kv-diff", Test_shard.kv_diff_tests);
      ("policy", Test_policy.tests);
      ("properties", Test_props.tests);
      ("fuzz", Test_fuzz.tests);
      ("futures", Test_futures.tests);
      ("crashes", Test_crashes.tests);
      ("composition", Test_composition.tests);
      ("obs", Test_obs.tests);
      ("pool", Test_pool.tests);
      ("recovery", Test_recovery.tests);
      ("cli", Test_cli.tests);
    ]
