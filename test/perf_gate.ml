(* The CI perf-regression gate: one evaluator over one bounds table.

     perf_gate --baseline B.json [--parallel P.json]
               [--inject-slowdown-pct P] REPORT...
     perf_gate --write-baseline -o B.json REPORT...

   Each REPORT is a bench output whose "schema" picks the extractor that
   turns it into named measurements.  Each measurement has one rule
   against its bound in the baseline (psd-perf-gate-baseline/2, one flat
   "bounds" object keyed by name): a band (within max(0.05, 2%) of the
   bound), a floor (at or above it) or a cap (at or below it).  DESIGN.md
   ("CI perf-regression gate") lists every bound and why it has its rule.

   A bound's name up to its first dot is its report kind; bounds of kinds
   no REPORT supplies are not checked.  Anything else that does not line
   up fails: an unknown schema, two reports of one kind, a missing field,
   a measurement without a bound, a bound that nothing measured.
   --parallel names a report that must be byte-identical to the REPORT
   of its kind (the same bench run at --jobs auto).
   --inject-slowdown-pct P makes every value P% worse (bands and caps
   times 1+P/100, floors divided by it); runtest uses it to show that
   each check catches what it claims.  --write-baseline writes every
   bound: a band the measured value, a floor the measurement less its
   headroom, a cap its contract value. *)

(* A floor carries the bound --write-baseline derives from a measurement,
   a cap its contract value. *)
type rule = Band | Floor of (float -> float) | Cap of float

type measurement = { name : string; value : float; rule : rule; note : string }

let measure ?(note = "") name rule value = { name; value; rule; note }
let baseline_schema = "psd-perf-gate-baseline/2"

let usage () =
  prerr_endline
    "usage: perf_gate --baseline B.json [--parallel P.json] \
     [--inject-slowdown-pct P] REPORT...\n\
    \       perf_gate --write-baseline -o B.json REPORT...";
  exit 2

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "perf_gate: %s\n" msg;
    exit 2

let median xs =
  let a = Array.of_list (List.sort compare xs) and n = List.length xs in
  if n = 0 then raise (Minijson.Bad "no workloads");
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

let num key json = Minijson.(to_num (member key json))
let str key json = Minijson.(to_str (member key json))
let list key json = Minijson.(to_list (member key json))

(* Per config, in first-appearance order, the median overhead across
   workloads; then the median sampled-profiling overhead of the
   undiversified binaries. *)
let telemetry json =
  let workloads = list "workloads" json in
  let cells = List.concat_map (list "configs") workloads in
  let add acc c = if List.mem c acc then acc else c :: acc in
  let configs = List.fold_left add [] (List.map (str "config") cells) in
  let overheads n =
    List.filter_map
      (fun c -> if str "config" c = n then Some (num "overhead_pct" c) else None)
      cells
  in
  List.rev_map
    (fun n -> measure ("telemetry.overhead." ^ n) Band (median (overheads n)))
    configs
  @ [ measure "telemetry.sampling" Band (median (List.map
        (fun w -> num "sampling_overhead_pct" (Minijson.member "baseline" w))
        workloads)) ]

(* The worst budgeted cell's max overhead as a % of its budget.  Cells
   without budget_pct are unbudgeted; a report without a budgeted cell
   gates nothing, so it fails. *)
let portfolio json =
  let budgeted w = function
    | Minijson.Obj kvs as c when List.mem_assoc "budget_pct" kvs ->
        Some (str "name" w ^ "/" ^ str "config" c,
              num "overhead_max_pct" c /. num "budget_pct" c *. 100.0)
    | _ -> None
  in
  let cells =
    List.concat_map (fun w -> List.filter_map (budgeted w) (list "configs" w))
      (list "workloads" json)
  in
  if cells = [] then raise (Minijson.Bad "no budgeted cell");
  let cell, use =
    List.fold_left (fun (c, u) (c', u') -> if u' > u then (c', u') else (c, u))
      ("", neg_infinity) cells
  in
  [ measure ~note:("worst cell " ^ cell) "portfolio.budget_use_pct" (Cap 100.0) use ]

let one name rule key json = [ measure name rule (num key json) ]

(* schema -> (report kind, extractor), in the order bounds are written.
   The floors keep headroom under the wall-clock measurement: 20% for
   the engine speedup, 50% (at least 1.1) for the serve ratio, whose
   cold and warm clocks both vary across machines. *)
let kinds =
  [
    ("psd-bench-telemetry/2", ("telemetry", telemetry));
    ( "psd-bench-sim-speedup/1",
      ( "sim-speedup",
        one "sim-speedup.geomean" (Floor (fun g -> 0.8 *. g)) "geomean_speedup" ) );
    ( "psd-bench-serve/1",
      ( "serve",
        one "serve.warm_cold_ratio"
          (Floor (fun r -> Float.max 1.1 (0.5 *. r))) "warm_cold_ratio" ) );
    ("psd-bench-portfolio/1", ("portfolio", portfolio));
  ]

let kind_names = List.map (fun (_, (k, _)) -> k) kinds

type report = { path : string; text : string; kind : string; ms : measurement list }

let failed = ref false

let line ok fmt =
  if not ok then failed := true;
  Printf.ksprintf (fun s -> print_endline ((if ok then "ok   " else "FAIL ") ^ s)) fmt

(* Runs [f] on the parsed file, or prints a FAIL line naming it. *)
let with_json path f =
  let text = read_file path in
  match f text (Minijson.parse text) with
  | v -> Some v
  | exception Minijson.Bad msg ->
      line false "%s: %s" path msg;
      None

let kind_of json =
  let schema = str "schema" json in
  match List.assoc_opt schema kinds with
  | Some k -> k
  | None -> raise (Minijson.Bad ("unknown report schema " ^ schema))

let load path =
  with_json path (fun text json ->
      let kind, extract = kind_of json in
      { path; text; kind; ms = extract json })

let check bounds m =
  match List.assoc_opt m.name bounds with
  | None -> line false "%s measured but absent from baseline" m.name
  | Some b ->
      let ok, how =
        match m.rule with
        | Band ->
            let tol = Float.max 0.05 (0.02 *. Float.abs b) in
            (Float.abs (m.value -. b) <= tol, Printf.sprintf "band %.3f +- %.3f" b tol)
        | Floor _ -> (m.value >= b, Printf.sprintf "floor %.3f" b)
        | Cap _ -> (m.value <= b, Printf.sprintf "cap %.3f" b)
      in
      line ok "%-26s %8.3f  %s%s" m.name m.value how
        (if m.note = "" then "" else "  (" ^ m.note ^ ")")

let write_baseline out ms =
  let bound m =
    match m.rule with
    | Band -> Printf.sprintf "%.6f" m.value
    | Floor f -> Printf.sprintf "%.1f" (f m.value)
    | Cap c -> Printf.sprintf "%.1f" c
  in
  let rows = List.map (fun m -> Printf.sprintf "    %S: %s" m.name (bound m)) ms in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "{\n  \"schema\": %S,\n  \"bounds\": {\n%s\n  }\n}\n"
        baseline_schema (String.concat ",\n" rows));
  Printf.printf "baseline written to %s (%d bounds)\n" out (List.length ms)

let () =
  let baseline = ref None and parallel = ref None and out = ref None in
  let inject = ref 0.0 and write = ref false and paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: v :: rest -> baseline := Some v; parse rest
    | "--parallel" :: v :: rest -> parallel := Some v; parse rest
    | "-o" :: v :: rest -> out := Some v; parse rest
    | "--write-baseline" :: rest -> write := true; parse rest
    | "--inject-slowdown-pct" :: v :: rest when float_of_string_opt v <> None ->
        inject := float_of_string v; parse rest
    | v :: rest when v <> "" && v.[0] <> '-' -> paths := v :: !paths; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !paths = [] then usage ();
  let loaded = List.filter_map load (List.rev !paths) in
  (* One report per kind, in table order; a second one of a kind fails. *)
  let reports =
    List.filter_map
      (fun kind ->
        match List.filter (fun r -> r.kind = kind) loaded with
        | [] -> None
        | r :: dups ->
            List.iter (fun d -> line false "%s: second %s report" d.path kind) dups;
            Some r)
      kind_names
  in
  let k = 1.0 +. (!inject /. 100.0) in
  let worse m =
    { m with value = (match m.rule with Floor _ -> m.value /. k | _ -> m.value *. k) } in
  let measured = List.concat_map (fun r -> List.map worse r.ms) reports in
  match (!write, !out, !baseline) with
  | true, Some out, _ ->
      if !failed then exit 1;
      write_baseline out measured
  | false, None, Some baseline_path ->
      Option.iter
        (fun p ->
          ignore
            (with_json p (fun text json ->
                 let kind, _ = kind_of json in
                 match List.find_opt (fun r -> r.kind = kind) reports with
                 | Some r when String.equal r.text text ->
                     line true "%s byte-identical to %s (%d bytes)" p r.path
                       (String.length text)
                 | Some r ->
                     line false "%s differs from %s: pool nondeterminism" p r.path
                 | None -> line false "%s: no %s report to compare with" p kind)))
        !parallel;
      let bounds =
        with_json baseline_path (fun _ json ->
            if str "schema" json <> baseline_schema then
              raise (Minijson.Bad ("schema is not " ^ baseline_schema));
            match Minijson.member "bounds" json with
            | Minijson.Obj kvs -> List.map (fun (n, v) -> (n, Minijson.to_num v)) kvs
            | _ -> raise (Minijson.Bad "bounds is not an object"))
        |> function Some bounds -> bounds | None -> exit 1
      in
      List.iter (check bounds) measured;
      List.iter
        (fun (name, _) ->
          let kind = List.hd (String.split_on_char '.' name) in
          if not (List.mem kind kind_names) then
            line false "bound %s names no report kind" name
          else if List.exists (fun r -> r.kind = kind) reports
                  && not (List.exists (fun m -> m.name = name) measured)
          then line false "bound %s: no %s report measured it" name kind)
        bounds;
      if !failed then (
        print_endline
          "perf gate FAILED: if the change is intentional, regenerate \
           test/perf_baseline.json with --write-baseline (see DESIGN.md)";
        exit 1);
      Printf.printf "perf gate passed (%d measurement(s))\n" (List.length measured)
  | _ -> usage ()
