(* The golden interpreter fixture (golden_interp.json): the IR
   interpreter's observable result on a fixed set of runs, pinned so a
   rewrite of [Interp] can be checked against the semantics it replaces
   without keeping the old interpreter around.  The generator
   (gen_golden_interp.exe) and the check in the test runner share this
   module, so they cannot disagree on what a row means.

   Rows: every workload on its training input at the default fuel (the
   [Driver.train] run), every [test/corpus] program at O0 and O2 under
   the fuzz oracle's fuel, and fuel boundaries — a workload cut off
   mid-run, and a workload run at exactly its step count and one step
   short of it.

   Each row pins the outcome ([ret N] or [trap MSG]) and, for a run that
   halts, the output's MD5, the step count, and MD5s of the
   [blocks]/[edges]/[calls] tables rendered twice: sorted, and in
   [Hashtbl.fold] order — the latter pins the tables' insertion order and
   sizing, which every float sum folded over a profile depends on. *)

let schema = "psd-golden-interp/1"

type case = {
  name : string;
      (** ["WORKLOAD/train"] or ["CORPUS_FILE/O0"] / ["CORPUS_FILE/O2"] *)
  fuel : int64 option;  (** [None]: the interpreter's default *)
}

type pinned = {
  case : case;
  outcome : string;  (** ["ret N"] or ["trap MSG"] *)
  output_md5 : string;  (** ["-"] for the digests of a trapped run *)
  steps : int64;  (** [-1] for a trapped run *)
  blocks_sorted : string;
  blocks_fold : string;
  edges_sorted : string;
  edges_fold : string;
  calls_sorted : string;
  calls_fold : string;
}

(* The regression corpus, shared with the fuzz and engine suites.
   `dune runtest` runs in the test build directory, `dune exec` and the
   generator in the project root — accept both. *)
let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  Sys.readdir (corpus_dir ())
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_source file = read_file (Filename.concat (corpus_dir ()) file)

(* The fuzz oracle's interpreter fuel (Oracle.interp_fuel). *)
let corpus_fuel = 300_000L

(* The fuel boundary rows: a workload cut off well before it halts, and
   one that halts after exactly [boundary_steps] steps. *)
let cutoff_workload = "400.perlbench"
let cutoff_fuel = 100_000L
let boundary_program = "429.mcf/train"
let boundary_steps = 78_847L

let cases () =
  List.map
    (fun (w : Workload.t) -> { name = w.Workload.name ^ "/train"; fuel = None })
    Workloads.all
  @ List.concat_map
      (fun file ->
        List.map
          (fun level -> { name = file ^ "/" ^ level; fuel = Some corpus_fuel })
          [ "O0"; "O2" ])
      (corpus_files ())
  @ [
      { name = cutoff_workload ^ "/train"; fuel = Some cutoff_fuel };
      { name = boundary_program; fuel = Some boundary_steps };
      { name = boundary_program; fuel = Some (Int64.pred boundary_steps) };
    ]

let program_of_case case =
  match String.rindex_opt case.name '/' with
  | None -> failwith ("golden_interp: bad case " ^ case.name)
  | Some i -> (
      let prog = String.sub case.name 0 i in
      match String.sub case.name (i + 1) (String.length case.name - i - 1) with
      | "train" ->
          let w = Workloads.find prog in
          let c =
            Driver.compile_cached ~name:w.Workload.name w.Workload.source
          in
          (c.Driver.modul, w.Workload.train_args)
      | ("O0" | "O2") as level ->
          let src = corpus_source prog in
          let opt = if level = "O0" then Pipeline.O0 else Pipeline.O2 in
          let c = Driver.compile ~opt ~name:prog src in
          (c.Driver.modul, Fuzz.parse_args_header src)
      | kind -> failwith ("golden_interp: unknown case kind " ^ kind))

let md5 s = Digest.to_hex (Digest.string s)

(* One line per entry, in [Hashtbl.fold] order or sorted. *)
let render tbl line =
  let lines = Hashtbl.fold (fun k v acc -> line k v :: acc) tbl [] in
  let lines = List.rev lines in
  (md5 (String.concat "\n" (List.sort compare lines)), md5 (String.concat "\n" lines))

let pin case =
  let m, args = program_of_case case in
  match Interp.run ?fuel:case.fuel m ~entry:"main" ~args with
  | r ->
      let c = r.Interp.counts in
      let blocks_sorted, blocks_fold =
        render c.Interp.blocks (fun (f, l) n -> Printf.sprintf "%s %d %Ld" f l n)
      in
      let edges_sorted, edges_fold =
        render c.Interp.edges (fun (f, s, d) n ->
            Printf.sprintf "%s %d %d %Ld" f s d n)
      in
      let calls_sorted, calls_fold =
        render c.Interp.calls (fun f n -> Printf.sprintf "%s %Ld" f n)
      in
      {
        case;
        outcome = Printf.sprintf "ret %ld" r.Interp.ret;
        output_md5 = md5 r.Interp.output;
        steps = r.Interp.steps;
        blocks_sorted;
        blocks_fold;
        edges_sorted;
        edges_fold;
        calls_sorted;
        calls_fold;
      }
  | exception Interp.Trap msg ->
      {
        case;
        outcome = "trap " ^ msg;
        output_md5 = "-";
        steps = -1L;
        blocks_sorted = "-";
        blocks_fold = "-";
        edges_sorted = "-";
        edges_fold = "-";
        calls_sorted = "-";
        calls_fold = "-";
      }

let fuel_json = function None -> "null" | Some f -> Int64.to_string f

let to_json pins =
  let b = Buffer.create (1 lsl 14) in
  Printf.bprintf b "{\n  \"schema\": %S,\n  \"rows\": [\n" schema;
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    {\"case\": %S, \"fuel\": %s, \"outcome\": %S, \"output_md5\": \
         %S, \"steps\": %Ld, \"blocks_sorted\": %S, \"blocks_fold\": %S, \
         \"edges_sorted\": %S, \"edges_fold\": %S, \"calls_sorted\": %S, \
         \"calls_fold\": %S}"
        p.case.name (fuel_json p.case.fuel) p.outcome p.output_md5 p.steps
        p.blocks_sorted p.blocks_fold p.edges_sorted p.edges_fold
        p.calls_sorted p.calls_fold)
    pins;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Raises [Failure] on a schema mismatch and [Minijson.Bad] on a
   malformed row. *)
let of_json text =
  let open Minijson in
  let j = parse text in
  let s = to_str (member "schema" j) in
  if s <> schema then
    failwith (Printf.sprintf "golden_interp: schema %S, expected %S" s schema);
  List.map
    (fun row ->
      let str k = to_str (member k row) in
      let fuel =
        match member "fuel" row with
        | Null -> None
        | v -> Some (Int64.of_float (to_num v))
      in
      {
        case = { name = str "case"; fuel };
        outcome = str "outcome";
        output_md5 = str "output_md5";
        steps = Int64.of_float (to_num (member "steps" row));
        blocks_sorted = str "blocks_sorted";
        blocks_fold = str "blocks_fold";
        edges_sorted = str "edges_sorted";
        edges_fold = str "edges_fold";
        calls_sorted = str "calls_sorted";
        calls_fold = str "calls_fold";
      })
    (to_list (member "rows" j))

let label case =
  Printf.sprintf "%s fuel=%s" case.name (fuel_json case.fuel)

(* Re-run a pinned row and compare every field. *)
let check p =
  let got = pin p.case in
  let field what want have =
    Alcotest.(check string) (label p.case ^ ": " ^ what) want have
  in
  field "outcome" p.outcome got.outcome;
  field "output md5" p.output_md5 got.output_md5;
  Alcotest.(check int64) (label p.case ^ ": steps") p.steps got.steps;
  field "blocks (sorted)" p.blocks_sorted got.blocks_sorted;
  field "blocks (fold order)" p.blocks_fold got.blocks_fold;
  field "edges (sorted)" p.edges_sorted got.edges_sorted;
  field "edges (fold order)" p.edges_fold got.edges_fold;
  field "calls (sorted)" p.calls_sorted got.calls_sorted;
  field "calls (fold order)" p.calls_fold got.calls_fold
