(* What every workload shares: the set-up of the 19 programs, the
   seeded version numbering, the gadget census, simulator runs checked
   against the IR interpreter, and peak-memory readings. *)

type prog = {
  w : Workload.t;
  compiled : Driver.compiled;
  profile : Profile.t;
  baseline : Link.image;
  expect_output : string;  (* IR interpreter on the train input *)
  expect_status : int32;
  ir_steps : int64;
  base_gadgets : int Lazy.t;  (* gadgets in the baseline's .text *)
}

(* Where runs leave the trace and the serve socket, relative to the
   checkout root the benchmark runs from. *)
let out_dir = Filename.concat "perfbench" "out"

let config spec =
  match Config.of_spec spec with Ok c -> c | Error e -> failwith e

(* The Figure-4 configuration and the full-portfolio budgeted one. *)
let p030 = config "p0-30"
let budgeted = config "p0-30+sched+regperm+subst+b1"

let budget_pct =
  match budgeted.Config.budget_pct with Some b -> b | None -> assert false

(* Cold set-up: drop every driver cache and the function store, then
   compile, train and baseline-link each program and compute the IR
   interpreter's reference output on the train input. *)
let setup () =
  Driver.clear_caches ();
  List.map
    (fun (w : Workload.t) ->
      let id = w.Workload.name in
      let compiled =
        Bspan.with_ ~id "compile" (fun () ->
            Driver.compile_cached ~name:w.Workload.name w.Workload.source)
      in
      let profile =
        Bspan.with_ ~id "profile.train" (fun () ->
            Driver.train_cached compiled ~args:w.Workload.train_args)
      in
      let baseline =
        Bspan.with_ ~id "link.baseline" (fun () ->
            Driver.link_baseline_cached compiled)
      in
      let r =
        Bspan.with_ ~id "ir.ref" (fun () ->
            Driver.run_ir compiled ~args:w.Workload.train_args)
      in
      {
        w;
        compiled;
        profile;
        baseline;
        expect_output = r.Interp.output;
        expect_status = r.Interp.ret;
        ir_steps = r.Interp.steps;
        base_gadgets = lazy (Finder.count baseline.Link.text);
      })
    Workloads.all

let timed f =
  let t0 = Clock.now_s () in
  let v = f () in
  (v, Clock.now_s () -. t0)

(* Version numbers: a seeded base per workload, rounds a thousand
   apart, so no two rounds share a variant. *)
let version_base ~seed ~workload =
  Rng.int (Rng.of_labels (Int64.of_int seed) [ "perfbench"; workload ]) 1_000_000
  * 1_000_000

let version ~base ~round i = base + (round * 1_000) + i

(* ---- peak memory ----
   The harness compacts the heap after set-up and resets the working
   process's high-water mark (clear_refs 5) when the window starts;
   each workload reads the mark once its fixed seeded set is done. *)

let reset_hwm pid =
  Out_channel.with_open_text (Printf.sprintf "/proc/%s/clear_refs" pid) (fun oc ->
      output_string oc "5")

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith (path ^ ": no VmHWM line")
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* NOPs the nop pass inserted into one variant, and bytes every pass
   added to it. *)
let divpass_counts (report : Divpass.report) =
  List.fold_left
    (fun (nops, bytes) (s : Divpass.stats) ->
      ( (if s.Divpass.pass = "nop" then nops + s.Divpass.changed else nops),
        bytes + s.Divpass.bytes_added ))
    (0, 0) report

(* ---- the gadget census (Tables 2-3) ---- *)

type census = {
  mutable variants : int;
  mutable survivors : int;
  mutable blocked : int;  (* surviving gadgets miss a required class *)
  mutable compared : int;  (* baseline gadgets the survivors came from *)
  mutable ge2 : int;  (* (offset, gadget) pairs in >= 2 versions *)
  mutable keys : int;  (* distinct (offset, gadget) pairs *)
}

let census () =
  { variants = 0; survivors = 0; blocked = 0; compared = 0; ge2 = 0; keys = 0 }

(* One variant against its baseline: Survivor, then the Ropgadget
   verdict on the survivors. *)
let census_variant ~id p (image : Link.image) =
  let gadgets =
    Bspan.with_ ~id "gadget.survivor" (fun () ->
        Survivor.surviving_gadgets ~original:p.baseline.Link.text
          ~diversified:image.Link.text ())
  in
  let verdict =
    Bspan.with_ ~id "gadget.attack" (fun () ->
        Attack.attack_on_gadgets Attack.Ropgadget gadgets)
  in
  (gadgets, verdict)

let add_variant c p (gadgets, (verdict : Attack.verdict)) =
  c.variants <- c.variants + 1;
  c.survivors <- c.survivors + List.length gadgets;
  if not verdict.Attack.feasible then c.blocked <- c.blocked + 1;
  c.compared <- c.compared + Lazy.force p.base_gadgets

let thresholds = [ 1; 2; 5; 12 ]

let analyze ~id texts =
  Bspan.with_ ~id "gadget.population" (fun () ->
      Population.analyze ~thresholds texts)

let add_population c (r : Population.report) =
  c.ge2 <- c.ge2 + List.assoc 2 r.Population.at_least;
  c.keys <- c.keys + List.assoc 1 r.Population.at_least

(* The untimed census of a fixed variant set, one population per
   program. *)
let census_of groups =
  let c = census () in
  List.iter
    (fun (p, images) ->
      List.iter
        (fun (image : Link.image) ->
          add_variant c p (census_variant ~id:p.w.Workload.name p image))
        images;
      if images <> [] then
        add_population c
          (analyze ~id:p.w.Workload.name
             (List.map (fun (i : Link.image) -> i.Link.text) images)))
    groups;
  c

(* ---- simulator runs ---- *)

type sim_acc = {
  mutable runs : int;
  mutable instructions : int64;
  mutable cycles : float;
  mutable icache_misses : int64;
  mutable samples : int64;
  mutable exec_s : float;
}

let sim_acc () =
  {
    runs = 0;
    instructions = 0L;
    cycles = 0.0;
    icache_misses = 0L;
    samples = 0L;
    exec_s = 0.0;
  }

let add_run a ~exec_s (r : Sim.result) =
  a.runs <- a.runs + 1;
  a.instructions <- Int64.add a.instructions r.Sim.instructions;
  a.cycles <- a.cycles +. r.Sim.cycles;
  a.icache_misses <- Int64.add a.icache_misses r.Sim.icache_misses;
  (match r.Sim.sample_profile with
  | Some s -> a.samples <- Int64.add a.samples s.Sim.samples_taken
  | None -> ());
  a.exec_s <- a.exec_s +. exec_s

let minsn_per_s a = Int64.to_float a.instructions /. a.exec_s /. 1e6

(* Decode (the block cache for this image) and execute separately, so
   the two sim layers are timed apart; the run itself then hits the
   cache.  [sampled] records a production profile instead. *)
let simulate ?(sampled = false) ~id ~span p (image : Link.image) ~args =
  let (_ : Bsim.cache) =
    Bspan.with_ ~id "sim.decode" (fun () -> Bsim.cache_for image Timing.default)
  in
    timed (fun () ->
        Bspan.with_ ~id span (fun () ->
            if sampled then
              snd
                (Driver.record_profile image ~workload:p.w.Workload.name ~args)
            else Driver.run_image image ~args))

(* Same output and exit status as the IR interpreter. *)
let check_output p (r : Sim.result) =
  if r.Sim.output <> p.expect_output then
    Error
      (Bstat.Wrong
         (Printf.sprintf "%s: output %S, IR interpreter printed %S"
            p.w.Workload.name r.Sim.output p.expect_output))
  else if r.Sim.status <> p.expect_status then
    Error
      (Bstat.Wrong
         (Printf.sprintf "%s: status %ld, IR interpreter returned %ld"
            p.w.Workload.name r.Sim.status p.expect_status))
  else Ok r

(* Spot checks on each program's train input: the baseline and its
   images.  The whole set runs [spot_passes] times, every run checked,
   and each image's time is its fastest run: the host alternates for
   seconds at a time between a fast state and a much slower one, and one
   pass of a few seconds would otherwise land wholly in either. *)
let spot_passes = 3

let spot_checks tally groups =
  let runs =
    Array.of_list
      (List.concat_map
         (fun (p, images) -> List.map (fun i -> (p, i)) (p.baseline :: images))
         groups)
  in
  let pass k =
    Array.mapi
      (fun i (p, image) ->
        let id = Printf.sprintf "%s/spot%d/%d" p.w.Workload.name k i in
        Bstat.attempt tally id (fun () ->
            let r, exec_s =
              simulate ~id ~span:"sim.check" p image ~args:p.w.Workload.train_args
            in
            Result.map (fun r -> (r, exec_s)) (check_output p r)))
      runs
  in
  let passes = List.init spot_passes pass in
  let acc = sim_acc () in
  Array.iteri
    (fun i _ ->
      match List.map (fun p -> p.(i)) passes with
      | Some (r, _) :: _ as outcomes when List.for_all Option.is_some outcomes ->
          let fastest =
            List.fold_left
              (fun m o -> match o with Some (_, e) -> Float.min m e | None -> m)
              infinity outcomes
          in
          add_run acc ~exec_s:fastest r
      | _ -> ())
    runs;
  acc

let check_ms a = a.exec_s /. float_of_int (max 1 a.runs) *. 1e3

(* ---- ref-input runs (Figure 4) ---- *)

(* The budget planner's promise ([Budget]): the added cycles it
   estimates from the training profile stay within [budget_pct] of the
   estimated baseline.  What the budgeted variants then add on the ref
   input is measured, not promised: [ref_runs] returns it. *)
let check_plan tally p =
  let id = p.w.Workload.name ^ "/plan" in
  Bstat.attempt tally id (fun () ->
      let plan =
        Budget.plan ~config:budgeted ~profile:p.profile p.compiled.Driver.asm
      in
      let est, _, planned = Budget.summary plan in
      if planned <= est *. budget_pct /. 100.0 then Ok ()
      else
        Error
          (Bstat.Failed
             (Printf.sprintf "%s: planned %.0f added cycles, over the %g%% budget of %.0f"
                id planned budget_pct est)))
  |> ignore

(* Each program's baseline once on the ref input, then its [ratio]
   images and its [budgeted] ones.  Every variant must print what the
   baseline prints.  Returns the modeled cycles over the baseline's of
   the [ratio] images (for the overhead geomean) and of the [budgeted]
   ones. *)
let ref_runs tally groups =
  let per_prog =
    List.map
      (fun (p, ratio, budgeted) ->
        let name = p.w.Workload.name and args = p.w.Workload.ref_args in
        let run id image =
          let r, _ = simulate ~id ~span:"sim.exec" p image ~args in
          r
        in
        match
          Bstat.attempt tally (name ^ "/ref") (fun () ->
              Ok (run (name ^ "/ref") p.baseline))
        with
        | None -> ([], [])
        | Some base ->
            let variant what image =
              let id = name ^ "/" ^ what in
              Bstat.attempt tally id (fun () ->
                  let r = run id image in
                  if r.Sim.output <> base.Sim.output || r.Sim.status <> base.Sim.status
                  then
                    Error
                      (Bstat.Wrong
                         (Printf.sprintf
                            "%s: ref-input output %S (status %ld), baseline %S (%ld)" id
                            r.Sim.output r.Sim.status base.Sim.output base.Sim.status))
                  else Ok (r.Sim.cycles /. base.Sim.cycles))
            in
            ( List.filter_map (variant "ratio") ratio,
              List.filter_map (variant "budget") budgeted ))
      groups
  in
  (List.concat_map fst per_prog, List.concat_map snd per_prog)
