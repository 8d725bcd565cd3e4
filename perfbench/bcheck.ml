(* One served image: present, loadable, and hashing to its digest.  An
   image that does not load is a wrong output, like one that loads but
   hashes to another digest. *)
let check_image ~src (v : Sproto.variant) =
  match v.Sproto.image with
  | None -> Error (Bstat.Failed "reply carries no image")
  | Some bytes -> (
      match Sproto.image_of_string ~src bytes with
      | exception e ->
          Error (Bstat.Wrong ("image does not load: " ^ Printexc.to_string e))
      | image ->
          if Digest.to_hex (Digest.string image.Link.text) <> v.Sproto.digest then
            Error (Bstat.Wrong "image does not hash to its digest")
          else Ok (v.Sproto.version, image))
