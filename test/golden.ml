(* The golden byte-identity fixture (golden_nop_digests.json): which
   images it pins and how each one is fingerprinted.  The generator
   (gen_golden.exe) and the checks in the test runner share this module,
   so they cannot disagree on what a row means.

   Per workload the fixture holds one [baseline] row (the undiversified
   link) and, for every paper config x version in {0,1,2}, a nop-only
   diversified image under the workload's training profile
   ([profile = "train"]) and under [Profile.empty] ([profile = "empty"]).
   Each row pins the MD5 of the final .text and the MD5 of
   {!layout_text}, so the linker's layout is pinned along with the
   bytes. *)

let schema = "psd-golden-nop-digests/2"
let versions = 3

type row = {
  workload : string;
  config : string;  (** a paper config name, or ["baseline"] *)
  profile : string;  (** ["train"], ["empty"], or ["-"] for baseline *)
  version : int;
}

type pinned = { row : row; md5 : string; layout_md5 : string }

let rows_of (w : Workload.t) =
  let workload = w.Workload.name in
  { workload; config = "baseline"; profile = "-"; version = 0 }
  :: List.concat_map
       (fun profile ->
         List.concat_map
           (fun (config, _) ->
             List.init versions (fun version ->
                 { workload; config; profile; version }))
           Config.paper_configs)
       [ "train"; "empty" ]

let image_of_row row =
  let w = Workloads.find row.workload in
  let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  match row.config with
  | "baseline" -> Driver.link_baseline_cached c
  | cname ->
      let config = List.assoc cname Config.paper_configs in
      let profile =
        match row.profile with
        | "train" -> Driver.train_cached c ~args:w.Workload.train_args
        | "empty" -> Profile.empty
        | p -> failwith ("golden: unknown profile kind " ^ p)
      in
      fst (Driver.diversify_linked c ~config ~profile ~version:row.version)

(* A fixed text rendering of every image field except .text itself.
   Plain text rather than Marshal, so the pin survives any change to the
   on-disk image encoding. *)
let layout_text (image : Link.image) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "entry %d" image.Link.entry;
  line "user_start %d" image.Link.user_start;
  line "main_arity %d" image.Link.main_arity;
  List.iter (fun (s, off) -> line "symbol %s %d" s off) image.Link.symbols;
  List.iter
    (fun (f, blocks) ->
      List.iter (fun (l, off) -> line "block %s %d %d" f l off) blocks)
    image.Link.block_offsets;
  List.iter (fun (g, a) -> line "global %s %ld" g a) image.Link.globals;
  List.iter
    (fun (a, words) ->
      line "data %ld %s" a
        (String.concat " " (Array.to_list (Array.map Int32.to_string words))))
    image.Link.data_init;
  Buffer.contents b

let md5 s = Digest.to_hex (Digest.string s)

let pin row image =
  { row; md5 = md5 image.Link.text; layout_md5 = md5 (layout_text image) }

let to_json pins =
  let b = Buffer.create (1 lsl 17) in
  Printf.bprintf b "{\n  \"schema\": %S,\n  \"versions\": %d,\n  \"cells\": [\n"
    schema versions;
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    {\"workload\": %S, \"config\": %S, \"profile\": %S, \"version\": \
         %d, \"md5\": %S, \"layout_md5\": %S}"
        p.row.workload p.row.config p.row.profile p.row.version p.md5
        p.layout_md5)
    pins;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Raises [Failure] on a schema mismatch and [Minijson.Bad] on a
   malformed cell. *)
let of_json text =
  let open Minijson in
  let j = parse text in
  let s = to_str (member "schema" j) in
  if s <> schema then
    failwith (Printf.sprintf "golden: schema %S, expected %S" s schema);
  List.map
    (fun cell ->
      let str k = to_str (member k cell) in
      {
        row =
          {
            workload = str "workload";
            config = str "config";
            profile = str "profile";
            version = int_of_float (to_num (member "version" cell));
          };
        md5 = str "md5";
        layout_md5 = str "layout_md5";
      })
    (to_list (member "cells" j))

let label row =
  Printf.sprintf "%s/%s/%s v%d" row.workload row.config row.profile
    row.version

(* Rebuild a pinned row's image and compare both fingerprints. *)
let check p =
  let got = pin p.row (image_of_row p.row) in
  Alcotest.(check string) (label p.row ^ ": .text md5") p.md5 got.md5;
  Alcotest.(check string)
    (label p.row ^ ": layout md5")
    p.layout_md5 got.layout_md5
