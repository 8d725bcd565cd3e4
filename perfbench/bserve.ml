(* serve — a served population.  Set-up forks the variant-serving daemon
   at -j auto (inheriting the warm driver caches) and warms it with one
   request per program.  One client connection then runs a closed loop
   over a seeded [Sclient.trace] (config p0-30+sched+regperm+subst, four
   versions per request, images returned): each deploy job waits for
   its variants.  After the window every reply is verified — digests
   against the serial in-process oracle, images re-hashed — the first
   [exact_requests] requests' images are censused, and each program's
   first request among them is spot-checked on the train input and run
   on the ref input for the modeled overhead. *)

open Bcommon

let name = "serve"
let serve_config = "p0-30+sched+regperm+subst"
let versions_per_request = 4
let exact_requests = 150
let version_space = 1_000_000
let max_requests = 50_000

type state = { progs : prog list; pid : int; fd : Unix.file_descr }

let socket_path () =
  Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* The daemon child drops the tracer it inherited and compacts the heap
   it inherited; its driver caches stay warm from set-up. *)
let fork_daemon socket =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Trace.reset ();
          Gc.compact ();
          Sdaemon.run
            {
              (Sdaemon.default_cfg (Sdaemon.Unix_sock socket)) with
              Sdaemon.jobs = Pool.Auto;
            };
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> pid

(* Reap the daemon: ask it to shut down, give it ten seconds, then kill
   it. *)
let reap ?fd pid =
  (match fd with
  | Some fd ->
      (try Sclient.shutdown fd with _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  let deadline = Clock.now_s () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now_s () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let build_req ~id p ~versions =
  {
    Sproto.id;
    workload = p.w.Workload.name;
    config = serve_config;
    versions;
    want_images = true;
  }

let start progs =
  let socket = socket_path () in
  let pid = fork_daemon socket in
  match Sclient.connect ~retry_for:20.0 (Sdaemon.Unix_sock socket) with
  | exception e ->
      reap pid;
      raise e
  | fd -> (
      try
        List.iteri
          (fun i p ->
            match
              Sclient.rpc fd (Sproto.Build (build_req ~id:(i + 1) p ~versions:(0, 0)))
            with
            | Sproto.Built _ -> ()
            | r ->
                failwith
                  (Printf.sprintf "warm-up request for %s: reply %d is not Built"
                     p.w.Workload.name (Sproto.response_id r)))
          progs;
        { progs; pid; fd }
      with e ->
        reap ~fd pid;
        raise e)

let stop st = reap ~fd:st.fd st.pid
let pid st = string_of_int st.pid

type window = {
  summary : Bwork.summary;
  replies : (Sproto.build_req * (Sproto.response, string) result) list;
  encode_s : float;
  decode_s : float;
  round_trip_s : float;
  reply_bytes : int;
}

let summary w = w.summary
let src = "serve daemon"

let window st ~seed ~seconds _ =
  let reqs =
    Sclient.trace ~seed:(Int64.of_int seed)
      ~workloads:(List.map (fun p -> p.w.Workload.name) st.progs)
      ~config:serve_config ~requests:max_requests ~versions_per_request
      ~version_space ~want_images:true
  in
  let min_samples = max Bwork.min_samples exact_requests in
  let encode_s = ref 0.0 and decode_s = ref 0.0 and round_trip_s = ref 0.0 in
  let reply_bytes = ref 0 and replies = ref [] in
  let lat = ref [] and n_lat = ref 0 and work = ref 0 in
  let t0 = Clock.now_s () in
  let one (req : Sproto.build_req) =
    let id = string_of_int req.Sproto.id in
    let t1 = Clock.now_s () in
    match
      Bspan.with_ ~id "request" (fun () ->
          let frame, enc =
            timed (fun () ->
                Bspan.with_ ~id "sproto.encode" (fun () ->
                    Sproto.encode_request (Sproto.Build req)))
          in
          let framed =
            Bspan.with_ ~id "serve.wait" (fun () ->
                Sproto.write_all st.fd frame;
                Sproto.read_frame ~src st.fd)
          in
          match framed with
          | None -> failwith "connection closed before the reply"
          | Some f ->
              let resp, dec =
                timed (fun () ->
                    Bspan.with_ ~id "sproto.decode" (fun () ->
                        Sproto.response_of_frame ~src f))
              in
              (resp, enc, dec, String.length f))
    with
    | resp, enc, dec, bytes ->
        let rt = Clock.now_s () -. t1 in
        lat := (rt *. 1e3) :: !lat;
        incr n_lat;
        encode_s := !encode_s +. enc;
        decode_s := !decode_s +. dec;
        round_trip_s := !round_trip_s +. rt;
        reply_bytes := !reply_bytes + bytes;
        (match resp with
        | Sproto.Built b -> work := !work + List.length b.Sproto.variants
        | _ -> ());
        replies := (req, Ok resp) :: !replies;
        true
    | exception e ->
        replies := (req, Error (Printexc.to_string e)) :: !replies;
        false
  in
  let rss = ref nan in
  let rec loop = function
    | req :: rest
      when Bwork.continue ~t0 ~seconds ~min_samples ~samples:!n_lat ->
        let ok = one req in
        if !n_lat = exact_requests then rss := vm_hwm_mb (string_of_int st.pid);
        if ok then loop rest
    | _ -> ()
  in
  loop reqs;
  let window_s = Clock.now_s () -. t0 in
  {
    summary =
      { Bwork.work = !work; window_s; latencies_ms = !lat; peak_rss_mb = !rss };
    replies = List.rev !replies;
    encode_s = !encode_s;
    decode_s = !decode_s;
    round_trip_s = !round_trip_s;
    reply_bytes = !reply_bytes;
  }

(* One reply: Built, every digest equal to the serial oracle's, every
   image loadable and hashing to its digest. *)
let check_reply ~inproc (req : Sproto.build_req) resp =
  let failed m = Error (Bstat.Failed m) and wrong m = Error (Bstat.Wrong m) in
  match resp with
  | Error e -> failed e
  | Ok (Sproto.Shed { reason; _ }) -> failed ("shed: " ^ reason)
  | Ok (Sproto.Error_reply { message; _ }) -> failed ("error reply: " ^ message)
  | Ok (Sproto.Stats_reply _ | Sproto.Bye _) -> failed "control reply to a Build"
  | Ok (Sproto.Built b) ->
      let id = string_of_int req.Sproto.id in
      let expect, dt =
        timed (fun () ->
            Bspan.with_ ~id "serve.inproc" (fun () ->
                Sclient.oracle_digests ~workload:req.Sproto.workload
                  ~config:req.Sproto.config ~versions:req.Sproto.versions))
      in
      inproc := !inproc +. dt;
      let got = List.map (fun (v : Sproto.variant) -> v.Sproto.digest) b.Sproto.variants in
      if got <> expect then wrong "digests differ from the serial oracle"
      else
        List.fold_right
          (fun v acc ->
            Result.bind acc (fun images ->
                Result.map (fun i -> i :: images) (Bcheck.check_image ~src v)))
          b.Sproto.variants (Ok [])
        |> Result.map (fun images -> (b, images))

let verify st w tally =
  ignore
    (Bstat.attempt tally "daemon stats" (fun () ->
         let s = Sclient.stats st.fd in
         if s.Sproto.shed = 0L && s.Sproto.errors = 0L then Ok ()
         else
           Error
             (Bstat.Failed
                (Printf.sprintf "%Ld shed, %Ld errors" s.Sproto.shed
                   s.Sproto.errors))));
  let inproc = ref 0.0 and built = ref 0 in
  let lowering = ref 0 and hits = ref 0 and depth = ref 0 in
  (* workload -> (version, image) of the exact set, and the images of
     its first request there *)
  let groups = Hashtbl.create 19 and spot = Hashtbl.create 19 in
  List.iteri
    (fun k ((req : Sproto.build_req), resp) ->
      match
        Bstat.attempt tally
          (Printf.sprintf "request %d (%s)" req.Sproto.id req.Sproto.workload)
          (fun () -> check_reply ~inproc req resp)
      with
      | None -> ()
      | Some (b, images) ->
          incr built;
          lowering := !lowering + b.Sproto.lowering_runs;
          hits := !hits + b.Sproto.store_hits;
          depth := !depth + b.Sproto.queue_depth;
          if k < exact_requests then begin
            let wl = req.Sproto.workload in
            let have = Option.value ~default:[] (Hashtbl.find_opt groups wl) in
            Hashtbl.replace groups wl
              (List.fold_left
                 (fun acc (v, img) -> if List.mem_assoc v acc then acc else (v, img) :: acc)
                 have images);
            if not (Hashtbl.mem spot wl) then Hashtbl.replace spot wl (List.map snd images)
          end)
    w.replies;
  let per_prog tbl =
    List.filter_map
      (fun p ->
        Option.map (fun x -> (p, x)) (Hashtbl.find_opt tbl p.w.Workload.name))
      st.progs
  in
  let census =
    census_of
      (List.map (fun (p, vs) -> (p, List.rev_map snd vs)) (per_prog groups))
  in
  let spot = per_prog spot in
  let acc = spot_checks tally spot in
  let ratios, _ = ref_runs tally (List.map (fun (p, images) -> (p, images, [])) spot) in
  let n = float_of_int (max 1 (List.length w.replies)) in
  let nb = float_of_int (max 1 !built) in
  {
    Bwork.census;
    exact = acc;
    ratios;
    extra =
      [
        ("sproto.encode_us", w.encode_s /. n *. 1e6);
        ("sproto.decode_us", w.decode_s /. n *. 1e6);
        ("sproto.reply_kb", float_of_int w.reply_bytes /. n /. 1024.0);
        ("serve.wait_ms", (w.round_trip_s -. w.encode_s -. w.decode_s) /. n *. 1e3);
        ("serve.inproc_ms", !inproc /. nb *. 1e3);
        ("serve.lowering_runs", float_of_int !lowering);
        ("obj.store_hits", float_of_int !hits /. nb);
        ("serve.queue_depth", float_of_int !depth /. nb);
        ("sim.check_ms", check_ms acc);
        ("sim.plain_minsn_per_s", minsn_per_s acc);
      ];
  }
