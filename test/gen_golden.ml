(* Regenerate test/golden_nop_digests.json: the pinned byte-identity
   fixture for nop-only diversification and the link (see golden.ml for
   what each row pins).

   Run via: dune exec test/gen_golden.exe -- --out test/golden_nop_digests.json *)

let () =
  let out = ref "golden_nop_digests.json" in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | a :: _ -> failwith ("gen_golden: unknown arg " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let pins =
    List.concat_map
      (fun w ->
        List.map
          (fun row -> Golden.pin row (Golden.image_of_row row))
          (Golden.rows_of w))
      Workloads.all
  in
  let oc = open_out !out in
  output_string oc (Golden.to_json pins);
  close_out oc;
  Printf.printf "gen_golden: wrote %s (%d cells)\n" !out (List.length pins)
