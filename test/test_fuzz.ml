(* Tests for the differential fuzzer: the decision tape, the generator's
   determinism and well-formedness, the multi-oracle harness on the
   regression corpus, the workload diversification property, and the
   shrinker's accept-only-if-still-failing discipline. *)

(* A reduced oracle matrix for the 200-program smoke suite: two levels,
   one uniform and one profile-guided config, one diversified version.
   The CI fuzz job runs the full matrix; here the point is a fast,
   deterministic sweep on every `dune runtest`. *)
let smoke_levels = [ Pipeline.O0; Pipeline.O2 ]

let smoke_configs =
  List.filter
    (fun (name, _) -> List.mem name [ "p50"; "p0-30" ])
    Config.paper_configs

let smoke_check p =
  Oracle.check ~levels:smoke_levels ~configs:smoke_configs ~versions:1 p

(* ------------------------------------------------------------------ *)
(* Tape. *)

let test_tape_fresh () =
  let rng = Rng.of_labels 1L [ "tape-test" ] in
  let t = Tape.fresh rng in
  for _ = 1 to 100 do
    let v = Tape.draw t 7 in
    Alcotest.(check bool) "in bound" true (v >= 0 && v < 7)
  done;
  Alcotest.(check int) "length counts draws" 100 (Tape.length t);
  Alcotest.(check int) "recorded matches" 100 (Array.length (Tape.recorded t))

let test_tape_replay () =
  let t = Tape.replay [| 5; 100; -3 |] in
  Alcotest.(check int) "verbatim when in bound" 5 (Tape.draw t 10);
  Alcotest.(check int) "clamped by mod" 0 (Tape.draw t 10);
  Alcotest.(check int) "negative becomes 0" 0 (Tape.draw t 10);
  Alcotest.(check int) "past the end is 0" 0 (Tape.draw t 10);
  Alcotest.(check (array int)) "recorded canonicalizes" [| 5; 0; 0; 0 |]
    (Tape.recorded t);
  match Tape.draw t 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "draw with bound 0 must reject"

(* ------------------------------------------------------------------ *)
(* Generator. *)

let test_gen_deterministic () =
  let a = Gen.generate ~seed:3L ~index:17 in
  let b = Gen.generate ~seed:3L ~index:17 in
  Alcotest.(check string) "same source" a.Gen.source b.Gen.source;
  Alcotest.(check (list int32)) "same args" a.Gen.args b.Gen.args;
  Alcotest.(check (array int)) "same trace" a.Gen.trace b.Gen.trace;
  let c = Gen.generate ~seed:3L ~index:18 in
  Alcotest.(check bool) "different index differs" false
    (String.equal a.Gen.source c.Gen.source)

let test_gen_trace_roundtrip () =
  for index = 0 to 19 do
    let p = Gen.generate ~seed:11L ~index in
    let q = Gen.of_trace ~seed:11L ~index ~trace:p.Gen.trace in
    Alcotest.(check string)
      (Printf.sprintf "roundtrip source %d" index)
      p.Gen.source q.Gen.source;
    Alcotest.(check (list int32))
      (Printf.sprintf "roundtrip args %d" index)
      p.Gen.args q.Gen.args
  done

let test_gen_adversarial_traces () =
  (* Any trace must yield a program the frontend accepts — the shrinker
     depends on it.  Zeros, truncations, and large values alike. *)
  let traces =
    [
      [||];
      [| 0 |];
      Array.make 500 0;
      Array.make 500 1000000;
      Array.init 300 (fun i -> i * 7);
      Array.init 300 (fun i -> 299 - i);
    ]
  in
  List.iteri
    (fun k trace ->
      let p = Gen.of_trace ~seed:1L ~index:k ~trace in
      match Driver.compile ~opt:Pipeline.O0 ~name:p.Gen.name p.Gen.source with
      | _ -> ()
      | exception Failure msg ->
          Alcotest.failf "trace %d produced a rejected program: %s\n%s" k msg
            p.Gen.source)
    traces

(* The deterministic smoke suite: 200 generated programs through the
   reduced oracle matrix, zero divergences expected. *)
let test_smoke_200 () =
  let runs = ref 0 in
  for index = 0 to 199 do
    let p = Gen.generate ~seed:1L ~index in
    let r = smoke_check p in
    runs := !runs + r.Oracle.runs;
    match r.Oracle.divergence with
    | None -> ()
    | Some d ->
        Alcotest.failf "index %d: %s vs %s — %s\n%s" index d.Oracle.left
          d.Oracle.right d.Oracle.detail p.Gen.source
  done;
  Alcotest.(check bool) "ran the matrix" true (!runs >= 200 * 8)

(* ------------------------------------------------------------------ *)
(* Corpus replay: every shrunk regression program must agree across the
   full oracle matrix (trap cases included — trapped/trapped agrees). *)

let test_corpus () =
  let files = Golden_interp.corpus_files () in
  Alcotest.(check bool)
    (Printf.sprintf "corpus has programs (%d)" (List.length files))
    true
    (List.length files >= 10);
  List.iter
    (fun file ->
      let src = Golden_interp.corpus_source file in
      let args = Fuzz.parse_args_header src in
      let p = Gen.of_source ~name:file ~args src in
      let r = Oracle.check p in
      match r.Oracle.divergence with
      | None -> ()
      | Some d ->
          Alcotest.failf "%s: %s vs %s — %s" file d.Oracle.left d.Oracle.right
            d.Oracle.detail)
    files

(* The corpus must keep exercising each trap class. *)
let test_corpus_trap_classes () =
  let classes = Hashtbl.create 4 in
  List.iter
    (fun file ->
      let src = Golden_interp.corpus_source file in
      let args = Fuzz.parse_args_header src in
      let c = Driver.compile ~opt:Pipeline.O0 ~name:file src in
      match Interp.run ~fuel:300_000L c.Driver.modul ~entry:"main" ~args with
      | _ -> ()
      | exception Interp.Trap msg ->
          Hashtbl.replace classes (Oracle.classify msg) ())
    (Golden_interp.corpus_files ());
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        ("corpus covers trap class " ^ Oracle.trap_class_name cls)
        true (Hashtbl.mem classes cls))
    [ Oracle.Div; Oracle.Mem; Oracle.Resource ]

(* ------------------------------------------------------------------ *)
(* Oracle internals. *)

let test_classify () =
  let check msg cls = Alcotest.(check string) msg
      (Oracle.trap_class_name cls)
      (Oracle.trap_class_name (Oracle.classify msg))
  in
  check "division error in f (1 / 0)" Oracle.Div;
  check "division by zero" Oracle.Div;
  check "division overflow" Oracle.Div;
  check "load out of bounds: 0x10" Oracle.Mem;
  check "unaligned store at 0x3" Oracle.Mem;
  check "fuel exhausted after 42 steps" Oracle.Resource;
  check "call stack overflow in f" Oracle.Resource;
  check "stack overflow in f" Oracle.Resource;
  check "unknown builtin putsch/1" Oracle.Other

(* The interpreter's memory layout must mirror the linked image's:
   same argv reservation at the data base (the trap-parity fix). *)
let test_argv_parity () =
  Alcotest.(check int) "Interp.argv_words = Libc.argv_words" Libc.argv_words
    Interp.argv_words

(* ------------------------------------------------------------------ *)
(* Workload property: every suite program, under every paper config and
   three independent seeds, behaves identically to its baseline. *)

let test_workloads_diversified () =
  List.iter
    (fun (w : Workload.t) ->
      let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
      let args = w.Workload.train_args in
      let baseline = Driver.run_image (Driver.link_baseline_cached c) ~args in
      let profile = Driver.train_cached c ~args in
      List.iter
        (fun (cname, config) ->
          for version = 1 to 3 do
            let image, _ =
              Driver.diversify_linked c ~config ~profile ~version
            in
            let r = Driver.run_image image ~args in
            Alcotest.(check int32)
              (Printf.sprintf "%s/%s/v%d status" w.Workload.name cname version)
              baseline.Sim.status r.Sim.status;
            Alcotest.(check string)
              (Printf.sprintf "%s/%s/v%d output" w.Workload.name cname version)
              baseline.Sim.output r.Sim.output
          done)
        Config.paper_configs)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Fuzz runner helpers. *)

let test_parse_args_header () =
  Alcotest.(check (list int32)) "args parsed" [ 3l; -5l; 0l ]
    (Fuzz.parse_args_header "// hello\n// args: 3 -5 0\nint main() {}\n");
  Alcotest.(check (list int32)) "no header" []
    (Fuzz.parse_args_header "int main() {}\n")

let fake_divergence p =
  {
    Oracle.program = p;
    runs = 0;
    skips = [];
    divergence =
      Some
        {
          Oracle.left = "interp@O0";
          right = "sim@O0";
          left_outcome = Oracle.Halted { ret = 0l; output = "" };
          right_outcome = Oracle.Halted { ret = 1l; output = "" };
          detail = "synthetic";
        };
  }

let test_reproducer_format () =
  let p = Gen.generate ~seed:9L ~index:4 in
  let f = { Fuzz.report = fake_divergence p; shrunk = None } in
  let text = Fuzz.reproducer f in
  let again = Fuzz.reproducer f in
  Alcotest.(check string) "byte-identical" text again;
  Alcotest.(check (list int32)) "args header replays" p.Gen.args
    (Fuzz.parse_args_header text);
  (* The reproducer is itself valid MiniC. *)
  match Driver.compile ~opt:Pipeline.O0 ~name:"repro" text with
  | _ -> ()
  | exception Failure msg -> Alcotest.failf "reproducer rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Shrinker. *)

let test_shrink_requires_divergence () =
  let p = Gen.generate ~seed:2L ~index:0 in
  let r = { Oracle.program = p; runs = 0; skips = []; divergence = None } in
  match Shrink.shrink p r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shrink must reject a report with no divergence"

let test_shrink_keeps_only_failing () =
  (* A synthetic divergence on a program that does not actually diverge:
     no edit can reproduce it, so the shrinker must return the original
     unchanged after spending its budget. *)
  let p = Gen.generate ~seed:2L ~index:1 in
  let r = fake_divergence p in
  let s =
    Shrink.shrink ~levels:[ Pipeline.O0 ] ~configs:[] ~versions:0
      ~max_attempts:6 p r
  in
  Alcotest.(check string) "original kept" p.Gen.source s.Shrink.shrunk.Gen.source;
  Alcotest.(check bool) "budget was spent" true (s.Shrink.attempts > 0)

let test_shrink_corpus_noop () =
  let src = "// args: 0\nint main(int a) { return 5 / a; }\n" in
  let p = Gen.of_source ~name:"corpus" ~args:[ 0l ] src in
  let r = fake_divergence p in
  let s = Shrink.shrink ~max_attempts:3 p r in
  Alcotest.(check int) "empty trace: no attempts" 0 s.Shrink.attempts;
  Alcotest.(check string) "unchanged" src s.Shrink.shrunk.Gen.source

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "fuzz.tape",
      [
        Alcotest.test_case "fresh draws" `Quick test_tape_fresh;
        Alcotest.test_case "replay clamps and pads" `Quick test_tape_replay;
      ] );
    ( "fuzz.gen",
      [
        Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
        Alcotest.test_case "trace roundtrip" `Quick test_gen_trace_roundtrip;
        Alcotest.test_case "adversarial traces compile" `Quick
          test_gen_adversarial_traces;
      ] );
    ( "fuzz.oracle",
      [
        Alcotest.test_case "trap classification" `Quick test_classify;
        Alcotest.test_case "argv layout parity" `Quick test_argv_parity;
        Alcotest.test_case "corpus replays clean" `Slow test_corpus;
        Alcotest.test_case "corpus covers trap classes" `Quick
          test_corpus_trap_classes;
        Alcotest.test_case "200-program smoke" `Slow test_smoke_200;
      ] );
    ( "fuzz.workloads",
      [
        Alcotest.test_case "diversified outputs identical" `Slow
          test_workloads_diversified;
      ] );
    ( "fuzz.runner",
      [
        Alcotest.test_case "args header" `Quick test_parse_args_header;
        Alcotest.test_case "reproducer format" `Quick test_reproducer_format;
        Alcotest.test_case "shrink needs divergence" `Quick
          test_shrink_requires_divergence;
        Alcotest.test_case "shrink keeps only failing" `Quick
          test_shrink_keeps_only_failing;
        Alcotest.test_case "shrink is noop on corpus" `Quick
          test_shrink_corpus_noop;
      ] );
  ]
