(* The repository's benchmark: one seeded command per workload.

     main.exe --workload population|serve --seed N --seconds S
              --trace 0|1

   --trace 0 sets up three times (reporting the median; the first two
   in child processes), measures one window and prints every end-to-end
   metric.  --trace 1 measures an
   untraced pass and then a traced one (layer spans from this
   directory's files, exported to perfbench/out/), and prints the
   per-layer metrics, their self time and the tracing overhead.  The
   last line of stdout is the JSON result; the lines before it are the
   same numbers for people. *)

let workloads : (module Bwork.S) list = [ (module Bpopulation); (module Bserve) ]

let setup_reps = 3

(* The metrics and their units, as BENCHMARK.json declares them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("variants_per_s", "1/s");
    ("req_p50_ms", "ms");
    ("req_p90_ms", "ms");
    ("survivors_mean", "count");
    ("population_ge2", "count");
    ("attack_blocked_share", "ratio");
    ("modeled_overhead_pct", "%");
  ]

(* Spans whose self time is reported as a share of the traced window. *)
let window_spans =
  [
    "variant"; "core"; "gadget.survivor"; "gadget.attack"; "gadget.population";
    "request"; "sproto.encode"; "serve.wait"; "sproto.decode";
  ]

let per_layer =
  [
    (* set-up *)
    ("front.s", "s");
    ("opt.s", "s");
    ("opt.pass_runs", "count");
    ("machine.s", "s");
    ("machine.lowering_runs", "count");
    ("link.baseline_s", "s");
    ("profile.train_s", "s");
    ("profile.ir_msteps_per_s", "Msteps/s");
    ("ir.ref_s", "s");
    (* core and link *)
    ("divpass.sched.us", "us/variant");
    ("divpass.regperm.us", "us/variant");
    ("divpass.subst.us", "us/variant");
    ("divpass.nop.us", "us/variant");
    ("divpass.nops_inserted", "count");
    ("divpass.bytes_added", "bytes");
    ("core.alloc_kw", "kw/variant");
    ("link.us", "us/variant");
    ("budget.ref_busts", "count");
    ("budget.ref_use_pct", "%");
    (* gadget *)
    ("gadget.survivor_us", "us/variant");
    ("gadget.compared", "count");
    ("gadget.attack_us", "us/variant");
    ("gadget.population_ms", "ms/population");
    ("gadget.population_keys", "count");
    ("gadget.alloc_kw", "kw/variant");
    (* sim *)
    ("sim.decode_ms", "ms/image");
    ("sim.exec_ms", "ms/run");
    ("sim.plain_minsn_per_s", "Minsn/s");
    ("sim.sampled_minsn_per_s", "Minsn/s");
    ("sim.instructions", "count");
    ("sim.cycles", "cycles");
    ("sim.icache_misses", "count");
    ("sim.samples", "count");
    ("sim.check_ms", "ms/run");
    (* serve, exec, obj *)
    ("sproto.encode_us", "us/request");
    ("sproto.decode_us", "us/request");
    ("sproto.reply_kb", "kB/request");
    ("serve.wait_ms", "ms/request");
    ("serve.inproc_ms", "ms/request");
    ("serve.lowering_runs", "count");
    ("obj.store_hits", "hits/request");
    ("serve.queue_depth", "depth");
    (* requests, failures, tracing *)
    ("req.samples", "count");
    ("req.tail_ms", "ms");
    ("req.tail_pct", "percentile");
    ("fail_ratio", "ratio");
  ]
  @ List.map (fun s -> ("self." ^ s ^ ".pct", "%")) window_spans
  @ [
      ("self.glue.pct", "%");
      ("trace.spans", "count");
      ("trace.overhead.setup_pct", "%");
      ("trace.overhead.vps_pct", "%");
      ("trace.overhead.p50_pct", "%");
    ]

(* ---- one pass: set-up, window, verification ---- *)

type pass = {
  setup_s : float list;
  progs : Bcommon.prog list;
  summary : Bwork.summary;
  verified : Bwork.verified option;  (* only the reported pass verifies *)
  setup_snap : (string, Bspan.acc) Hashtbl.t;
  window_snap : (string, Bspan.acc) Hashtbl.t;
  verify_snap : (string, Bspan.acc) Hashtbl.t;
  cctx : (string * string, int * float) Hashtbl.t;
      (* (stage, pass) -> runs, seconds, summed over the programs'
         compilation contexts when the window closes *)
}

let cctx_totals progs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (p : Bcommon.prog) ->
      List.iter
        (fun (a : Cctx.agg) ->
          let key = (a.Cctx.a_stage, a.Cctx.a_pass) in
          let runs, s = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (runs + a.Cctx.runs, s +. a.Cctx.total_s))
        (Cctx.aggregate p.Bcommon.compiled.Driver.cctx))
    progs;
  tbl

(* One timed set-up in a forked child, which sends its time back and
   exits.  All set-ups but the measured one run this way because a
   process's peak RSS depends on how many set-ups its heap has been
   through: children that set up once peaked at 66.0-66.3 MB on one seed
   (twelve children), while a process that set up three times peaked at
   46-66 MB from run to run. *)
let setup_in_child (module W : Bwork.S) =
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        try
          let st, dt = Bcommon.timed (fun () -> W.start (Bcommon.setup ())) in
          W.stop st;
          let oc = Unix.out_channel_of_descr w in
          Printf.fprintf oc "%h\n" dt;
          close_out oc;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = In_channel.input_line ic in
      close_in ic;
      (match (Unix.waitpid [] pid, line) with
      | (_, Unix.WEXITED 0), Some l -> float_of_string l
      | _ -> failwith "a set-up in a child process failed")

let run_pass (module W : Bwork.S) ~reps ~seed ~seconds ~verify tally =
  let children = List.init (reps - 1) (fun _ -> setup_in_child (module W)) in
  let (progs, st), dt =
    Bcommon.timed (fun () ->
        let progs = Bcommon.setup () in
        (progs, W.start progs))
  in
  let setup_s = children @ [ dt ] in
  let setup_snap = Bspan.snapshot () in
  Fun.protect
    ~finally:(fun () -> W.stop st)
    (fun () ->
      Gc.compact ();
      Bcommon.reset_hwm (W.pid st);
      let window = W.window st ~seed ~seconds tally in
      let window_snap = Bspan.snapshot () in
      let cctx = cctx_totals progs in
      let verified = if verify then Some (W.verify st window tally) else None in
      let verify_snap = Bspan.snapshot () in
      {
        setup_s;
        progs;
        summary = W.summary window;
        verified;
        setup_snap;
        window_snap;
        verify_snap;
        cctx;
      })

(* ---- metrics ---- *)

let vps s = float_of_int s.Bwork.work /. s.Bwork.window_s
let p50 s = Stats.median s.Bwork.latencies_ms

let tail s = Bstat.highest_tail s.Bwork.latencies_ms

let e2e_values (p : pass) (v : Bwork.verified) =
  let c = v.Bwork.census in
  let per_variant x = float_of_int x /. float_of_int c.Bcommon.variants in
  [
    ("setup_s", Stats.median p.setup_s);
    ("peak_rss_mb", p.summary.Bwork.peak_rss_mb);
    ("variants_per_s", vps p.summary);
    ("req_p50_ms", p50 p.summary);
    ( "req_p90_ms",
      Option.value ~default:nan (Bstat.tail ~p:90 p.summary.Bwork.latencies_ms) );
    ("survivors_mean", per_variant c.Bcommon.survivors);
    ("population_ge2", float_of_int c.Bcommon.ge2);
    ("attack_blocked_share", per_variant c.Bcommon.blocked);
    ("modeled_overhead_pct", Bstat.overhead_pct v.Bwork.ratios);
  ]

let layer_values ~untraced (p : pass) (v : Bwork.verified) tally =
  let ws = p.window_snap and ss = p.setup_snap in
  let span name = Bspan.find ws name in
  (* [x] per call of span [a]; 0 when the window made no such call *)
  let per x (a : Bspan.acc) =
    if a.Bspan.count = 0 then 0.0 else x /. float_of_int a.Bspan.count
  in
  let mean_s ~scale name = per ((span name).Bspan.total_s *. scale) (span name) in
  (* the simulator also runs in verification (spot checks, budget runs) *)
  let sim_mean_ms name =
    let a = span name and b = Bspan.find p.verify_snap name in
    let n = a.Bspan.count + b.Bspan.count in
    if n = 0 then 0.0 else (a.Bspan.total_s +. b.Bspan.total_s) *. 1e3 /. float_of_int n
  in
  let stage_sum ?(pass = fun _ -> true) stage f =
    Hashtbl.fold
      (fun (st, ps) v acc -> if st = stage && pass ps then acc +. f v else acc)
      p.cctx 0.0
  in
  let seconds (_, s) = s and runs (n, _) = float_of_int n in
  let not_verify ps = ps <> "verify" in
  let core = span "core" and surv = span "gadget.survivor" in
  let divpass pass = stage_sum ~pass:(( = ) pass) "diversify" seconds in
  let gadget_alloc =
    List.fold_left
      (fun a n -> a +. (span n).Bspan.alloc_w)
      0.0 [ "gadget.survivor"; "gadget.attack"; "gadget.population" ]
  in
  let ir_steps =
    List.fold_left (fun a pr -> Int64.add a pr.Bcommon.ir_steps) 0L p.progs
  in
  let ir_ref = Bspan.find ss "ir.ref" in
  let self_pct n = 100.0 *. (span n).Bspan.self_s /. p.summary.Bwork.window_s in
  let self_sum = List.fold_left (fun a n -> a +. self_pct n) 0.0 window_spans in
  let pct_worse ~base x = 100.0 *. (x -. base) /. base in
  let u_setup, u_vps, u_p50 = untraced in
  let tail_pct, tail_ms = Option.value ~default:(0, 0.0) (tail p.summary) in
  let c = v.Bwork.census and ex = v.Bwork.exact in
  [
    ("front.s", stage_sum "front" seconds);
    ("opt.s", stage_sum ~pass:not_verify "ir" seconds);
    ("opt.pass_runs", stage_sum ~pass:not_verify "ir" runs);
    ("machine.s", stage_sum "machine" seconds);
    ("machine.lowering_runs", stage_sum ~pass:(( = ) "isel") "machine" runs);
    ("link.baseline_s", (Bspan.find ss "link.baseline").Bspan.total_s);
    ("profile.train_s", (Bspan.find ss "profile.train").Bspan.total_s);
    ("profile.ir_msteps_per_s", Int64.to_float ir_steps /. ir_ref.Bspan.total_s /. 1e6);
    ("ir.ref_s", ir_ref.Bspan.total_s);
    ("divpass.sched.us", per (divpass "sched" *. 1e6) core);
    ("divpass.regperm.us", per (divpass "regperm" *. 1e6) core);
    ("divpass.subst.us", per (divpass "subst" *. 1e6) core);
    ("divpass.nop.us", per (divpass "nop-insert" *. 1e6) core);
    ("core.alloc_kw", per (core.Bspan.alloc_w /. 1e3) core);
    ( "link.us",
      per ((core.Bspan.total_s -. stage_sum "diversify" seconds) *. 1e6) core );
    ("gadget.survivor_us", mean_s ~scale:1e6 "gadget.survivor");
    ("gadget.compared", float_of_int c.Bcommon.compared);
    ("gadget.attack_us", mean_s ~scale:1e6 "gadget.attack");
    ("gadget.population_ms", mean_s ~scale:1e3 "gadget.population");
    ("gadget.population_keys", float_of_int c.Bcommon.keys);
    ("gadget.alloc_kw", per (gadget_alloc /. 1e3) surv);
    ("sim.decode_ms", sim_mean_ms "sim.decode");
    ("sim.exec_ms", sim_mean_ms "sim.exec");
    ("sim.instructions", Int64.to_float ex.Bcommon.instructions);
    ("sim.cycles", ex.Bcommon.cycles);
    ("sim.icache_misses", Int64.to_float ex.Bcommon.icache_misses);
    ("sim.samples", Int64.to_float ex.Bcommon.samples);
    ("req.samples", float_of_int (List.length p.summary.Bwork.latencies_ms));
    ("req.tail_ms", tail_ms);
    ("req.tail_pct", float_of_int tail_pct);
    ("fail_ratio", Bstat.fail_ratio tally);
  ]
  @ List.map (fun n -> ("self." ^ n ^ ".pct", self_pct n)) window_spans
  @ [
      ("self.glue.pct", 100.0 -. self_sum);
      ( "trace.spans",
        float_of_int
          (List.fold_left (fun a n -> a + (span n).Bspan.count) 0 window_spans) );
      ("trace.overhead.setup_pct", pct_worse ~base:u_setup (Stats.median p.setup_s));
      ("trace.overhead.vps_pct", -.pct_worse ~base:u_vps (vps p.summary));
      ("trace.overhead.p50_pct", pct_worse ~base:u_p50 (p50 p.summary));
    ]
  @ v.Bwork.extra

(* ---- output ---- *)

let emit ~workload ~summary ~setup_s ~tally ~defs values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name defs) then
        failwith ("metric " ^ name ^ " is not declared"))
    values;
  let values =
    List.map
      (fun (name, unit_) ->
        (name, unit_, Option.value ~default:0.0 (List.assoc_opt name values)))
      defs
  in
  let tally_ok = Bstat.correct tally in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) values in
  Printf.printf "workload %s: %d requests in %.2f s; tail percentile p%d\n" workload
    (List.length summary.Bwork.latencies_ms) summary.Bwork.window_s
    (match tail summary with Some (p, _) -> p | None -> 0);
  Printf.printf "set-up runs: %s s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_s));
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.6g %s\n" n v u) values;
  Printf.printf "fail_ratio %g: %d failed of %d attempted\n"
    (Bstat.fail_ratio tally) tally.Bstat.failed tally.Bstat.attempted;
  List.iter (fun r -> Printf.printf "  failure: %s\n" r) (List.rev tally.Bstat.reasons);
  if not finite then print_endline "  failure: a metric is not finite";
  print_endline
    (Jsonw.to_string
       (Jsonw.Obj
          [
            ("correct", Jsonw.Bool (tally_ok && finite));
            ("attempted", Jsonw.int tally.Bstat.attempted);
            ("failed", Jsonw.int (tally.Bstat.failed + if finite then 0 else 1));
            ( "metrics",
              Jsonw.Obj
                (List.map
                   (fun (n, u, v) ->
                     ( n,
                       Jsonw.Obj
                         [
                           ("value", Jsonw.Float (if Float.is_finite v then v else 0.0));
                           ("unit", Jsonw.Str u);
                         ] ))
                   values) );
          ]))

let run ~workload ~seed ~seconds ~traced =
  let (module W : Bwork.S) =
    match List.find_opt (fun (module W : Bwork.S) -> W.name = workload) workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  (try Sys.mkdir Bcommon.out_dir 0o755 with Sys_error _ -> ());
  let tally = Bstat.tally () in
  if not traced then begin
    let p =
      run_pass (module W) ~reps:setup_reps ~seed ~seconds ~verify:true tally
    in
    let v = Option.get p.verified in
    emit ~workload ~summary:p.summary ~setup_s:p.setup_s ~tally
      ~defs:end_to_end
      (e2e_values p v)
  end
  else begin
    let u = run_pass (module W) ~reps:1 ~seed ~seconds ~verify:false tally in
    let untraced = (Stats.median u.setup_s, vps u.summary, p50 u.summary) in
    Trace.start ();
    Bspan.enable ();
    let p =
      Fun.protect
        ~finally:(fun () ->
          Bspan.disable ();
          Trace.stop ();
          Trace.write
            (Filename.concat Bcommon.out_dir
               (Printf.sprintf "trace-%s-%d.json" workload seed)))
        (fun () -> run_pass (module W) ~reps:1 ~seed ~seconds ~verify:true tally)
    in
    let v = Option.get p.verified in
    emit ~workload ~summary:p.summary
      ~setup_s:(u.setup_s @ p.setup_s) ~tally
      ~defs:per_layer
      (layer_values ~untraced p v tally)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME population or serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "--trace takes 0 or 1";
    exit 2)
  else
    try run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
