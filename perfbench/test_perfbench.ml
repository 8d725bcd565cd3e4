(* The benchmark's own arithmetic: the ten-samples-beyond rule for tail
   percentiles, the failure tally behind fail_ratio, self time on nested
   spans, and the check of served images. *)

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_rule () =
  Alcotest.(check int) "p99 of 1000 has 10 beyond" 10 (Bstat.beyond ~p:99 1000);
  Alcotest.(check int) "p90 of 100 has 10 beyond" 10 (Bstat.beyond ~p:90 100);
  Alcotest.(check int) "samples p99 needs" 1000 (Bstat.min_samples 99);
  Alcotest.(check int) "samples p95 needs" 200 (Bstat.min_samples 95);
  Alcotest.(check int) "samples p90 needs" 100 (Bstat.min_samples 90);
  Alcotest.(check (option (float 0.0))) "p99 of 999 is not reported" None
    (Bstat.tail ~p:99 (samples 999));
  Alcotest.(check (option (float 0.0))) "p90 of 99 is not reported" None
    (Bstat.tail ~p:90 (samples 99));
  Alcotest.(check (option (float 1e-9))) "p99 of 1000"
    (Some (Stats.percentile 99.0 (samples 1000)))
    (Bstat.tail ~p:99 (samples 1000));
  Alcotest.(check (option (float 1e-9))) "p90 of 100"
    (Some (Stats.percentile 90.0 (samples 100)))
    (Bstat.tail ~p:90 (samples 100));
  Alcotest.(check (option int)) "500 samples: p95 is the highest reportable"
    (Some 95)
    (Option.map fst (Bstat.highest_tail (samples 500)));
  Alcotest.(check (option int)) "5 samples: nothing is reportable" None
    (Option.map fst (Bstat.highest_tail (samples 5)))

let test_fail_ratio () =
  let t = Bstat.tally () in
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Bstat.fail_ratio: nothing attempted") (fun () ->
      ignore (Bstat.fail_ratio t));
  Alcotest.(check (option int)) "ok" (Some 1) (Bstat.attempt t "a" (fun () -> Ok 1));
  Alcotest.(check (option int)) "wrong output" None
    (Bstat.attempt t "b" (fun () -> Error (Bstat.Wrong "output differs")));
  Alcotest.(check bool) "a wrong output makes the run incorrect" false
    (Bstat.correct t);
  Alcotest.(check (option int)) "broken promise" None
    (Bstat.attempt t "c" (fun () -> Error (Bstat.Failed "over budget")));
  Alcotest.(check (option int)) "raised" None
    (Bstat.attempt t "d" (fun () -> failwith "boom"));
  Alcotest.(check (option int)) "done, then rejected by a later check" (Some 5)
    (Bstat.attempt t "e" (fun () -> Ok 5));
  Bstat.fail t "e" (Bstat.Failed "later check");
  Alcotest.(check int) "attempted" 5 t.Bstat.attempted;
  Alcotest.(check int) "failed" 4 t.Bstat.failed;
  Alcotest.(check int) "wrong" 1 t.Bstat.wrong;
  Alcotest.(check (float 1e-12)) "ratio" 0.8 (Bstat.fail_ratio t);
  Alcotest.(check (list string)) "reasons, oldest first"
    [ "b: output differs"; "c: over budget"; "d: Failure(\"boom\")"; "e: later check" ]
    (List.rev t.Bstat.reasons);
  let u = Bstat.tally () in
  ignore (Bstat.attempt u "f" (fun () -> Error (Bstat.Failed "shed")));
  Alcotest.(check bool) "failures without a wrong output stay correct" true
    (Bstat.correct u);
  for _ = 1 to 20 do
    ignore (Bstat.attempt t "g" (fun () -> Error (Bstat.Failed "more")))
  done;
  Alcotest.(check int) "every failure counts" 24 t.Bstat.failed;
  Alcotest.(check int) "reasons are capped" Bstat.keep (List.length t.Bstat.reasons)

let test_overhead_pct () =
  Alcotest.(check (float 1e-9)) "geomean of ratios"
    (100.0 *. (sqrt (1.01 *. 1.04) -. 1.0))
    (Bstat.overhead_pct [ 1.01; 1.04 ])

(* outer [0,10] holds a [2,5] (which holds b [3,4]) and c [6,7]. *)
let test_self_time () =
  let now = ref 0.0 in
  let t = Bspan.create ~clock:(fun () -> !now) () in
  Bspan.enable ~t ();
  let span name f = Bspan.with_ ~t name f in
  span "outer" (fun () ->
      now := 2.0;
      span "a" (fun () ->
          now := 3.0;
          span "b" (fun () -> now := 4.0);
          now := 5.0);
      now := 6.0;
      (try span "c" (fun () -> now := 7.0; failwith "raised") with Failure _ -> ());
      now := 10.0);
  let snap = Bspan.snapshot ~t () in
  let check name ~total ~self =
    let a = Bspan.find snap name in
    Alcotest.(check int) (name ^ " count") 1 a.Bspan.count;
    Alcotest.(check (float 1e-12)) (name ^ " total") total a.Bspan.total_s;
    Alcotest.(check (float 1e-12)) (name ^ " self") self a.Bspan.self_s
  in
  check "outer" ~total:10.0 ~self:6.0;
  check "a" ~total:3.0 ~self:2.0;
  check "b" ~total:1.0 ~self:1.0;
  check "c" ~total:1.0 ~self:1.0;
  Alcotest.(check int) "snapshot starts afresh" 0
    (Bspan.find (Bspan.snapshot ~t ()) "outer").Bspan.count;
  Bspan.disable ~t ();
  span "off" (fun () -> now := 20.0);
  Alcotest.(check int) "disabled spans are not counted" 0
    (Bspan.find (Bspan.snapshot ~t ()) "off").Bspan.count

(* A served image that does not load, or loads but hashes to another
   digest, is a wrong output; a missing one is a failure. *)
let test_check_image () =
  let w = List.hd Workloads.all in
  let image =
    Driver.link_baseline_cached
      (Driver.compile_cached ~name:w.Workload.name w.Workload.source)
  in
  let bytes = Link.to_bytes image in
  let digest = Digest.to_hex (Digest.string image.Link.text) in
  let check what image =
    let t = Bstat.tally () in
    let v = { Sproto.version = 7; digest; image } in
    let r = Bstat.attempt t what (fun () -> Bcheck.check_image ~src:"test" v) in
    (Option.map fst r, t.Bstat.failed, t.Bstat.wrong)
  in
  let outcome = Alcotest.(triple (option int) int int) in
  Alcotest.check outcome "a good image" (Some 7, 0, 0) (check "good" (Some bytes));
  Alcotest.check outcome "no image" (None, 1, 0) (check "none" None);
  Alcotest.check outcome "corrupt bytes" (None, 1, 1) (check "corrupt" (Some "garbage"));
  Alcotest.check outcome "truncated image" (None, 1, 1)
    (check "truncated" (Some (String.sub bytes 0 (String.length bytes / 2))));
  let other =
    { image with Link.text = Bytes.to_string (Bytes.make (String.length image.Link.text) '\x90') }
  in
  Alcotest.check outcome "an image of other text" (None, 1, 1)
    (check "other" (Some (Link.to_bytes other)))

let () =
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "tail percentile needs ten samples beyond" `Quick
            test_tail_rule;
          Alcotest.test_case "fail_ratio accounting" `Quick test_fail_ratio;
          Alcotest.test_case "modeled overhead geomean" `Quick test_overhead_pct;
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "served image check" `Quick test_check_image;
        ] );
    ]
