(* Regenerate test/golden_interp.json: the pinned IR interpreter results
   (see golden_interp.ml for what each row pins).

   Run via: dune exec test/gen_golden_interp.exe -- --out test/golden_interp.json *)

let () =
  let out = ref "golden_interp.json" in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | a :: _ -> failwith ("gen_golden_interp: unknown arg " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let pins = List.map Golden_interp.pin (Golden_interp.cases ()) in
  let oc = open_out !out in
  output_string oc (Golden_interp.to_json pins);
  close_out oc;
  Printf.printf "gen_golden_interp: wrote %s (%d rows)\n" !out
    (List.length pins)
