let () =
  Alcotest.run "tip"
    [ ("chronon", Test_chronon.suite);
      ("span", Test_span.suite);
      ("instant", Test_instant.suite);
      ("period+allen", Test_period_allen.suite);
      ("element", Test_element.suite);
      ("sql", Test_sql.suite);
      ("storage", Test_storage.suite);
      ("engine", Test_engine.suite);
      ("blade", Test_blade.suite);
      ("client+browser", Test_client_browser.suite);
      ("workload", Test_workload.suite);
      ("builtins+union", Test_builtins_union.suite);
      ("subqueries", Test_subqueries.suite);
      ("tsql2", Test_tsql2.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("history", Test_history.suite);
      ("profile", Test_profile.suite);
      ("granularity", Test_granularity.suite);
      ("sql-fuzz", Test_sql_fuzz.suite);
      ("planner-shapes", Test_planner_shapes.suite);
      ("expr-unit", Test_expr_unit.suite);
      ("engine-fuzz", Test_engine_fuzz.suite);
      ("parallel", Test_parallel.suite);
      ("vector", Test_vector.suite);
      ("server", Test_server.suite);
      ("copy+savepoints", Test_copy_savepoints.suite);
      ("misc-coverage", Test_misc_coverage.suite);
      ("durability", Test_durability.suite);
      ("obs", Test_obs.suite);
      ("governor", Test_governor.suite);
      ("introspect", Test_introspect.suite);
      ("replication", Test_replication.suite);
      ("partition", Test_partition.suite);
      ("ha", Test_ha.suite);
      ("waits", Test_waits.suite);
      ("concurrency", Test_concurrency.suite) ]
