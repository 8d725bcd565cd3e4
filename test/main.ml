let () =
  Alcotest.run "psd"
    (List.concat [ Test_rng.suite; Test_stats.suite; Test_x86.suite; Test_front.suite; Test_interp.suite; Test_backend.suite; Test_profile.suite; Test_core.suite; Test_gadget.suite; Test_workloads.suite; Test_opt.suite; Test_machine.suite; Test_link_sim.suite; Test_sim_engine.suite; Test_obj.suite; Test_obs.suite; Test_pgo.suite; Test_fuzz.suite; Test_exec.suite; Test_serve.suite; Test_divpass.suite ])
