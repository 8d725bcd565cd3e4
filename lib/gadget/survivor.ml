type outcome = { baseline_gadgets : int; surviving : int }

let normalize insns = Nops.strip insns

(* Decode a straight-line free-branch-terminated sequence at a fixed
   offset of the diversified section, mirroring the finder's validity
   rule.  The diversified sequence may be longer than the original's
   (inserted NOPs), so search within the scanner depth. *)
let sequence_at ?(params = Finder.default_params) text offset =
  let rec walk pos n acc =
    if n > params.max_insns + params.max_back_bytes then None
    else
      match Decode.insn ~pos text with
      | Some (i, len) ->
          if Insn.is_free_branch i then Some (List.rev (i :: acc))
          else if Finder.breaks_gadget i then None
          else if pos + len - offset > params.max_back_bytes + 1 then None
          else walk (pos + len) (n + 1) (i :: acc)
      | None -> None
  in
  walk offset 1 []

(* The gadgets of [gadgets] (scanned from the original section) that
   survive in [diversified]. *)
let surviving_of ?params gadgets ~diversified =
  List.filter
    (fun (g : Finder.t) ->
      match sequence_at ?params diversified g.offset with
      | None -> false
      | Some div_insns ->
          (* Normalizing both sides may only increase similarity — the
             deliberate overestimate. *)
          let a = normalize g.insns and b = normalize div_insns in
          a <> [] && List.equal Insn.equal a b)
    gadgets

let survivors ?params ~original ~diversified () =
  surviving_of ?params (Finder.scan ?params original) ~diversified

let compare_sections ?params ~original ~diversified () =
  let baseline = Finder.scan ?params original in
  let surviving = List.length (surviving_of ?params baseline ~diversified) in
  { baseline_gadgets = List.length baseline; surviving }

let surviving_offsets ?params ~original ~diversified () =
  List.map
    (fun (g : Finder.t) -> g.offset)
    (survivors ?params ~original ~diversified ())

let surviving_gadgets ?params ~original ~diversified () =
  survivors ?params ~original ~diversified ()
