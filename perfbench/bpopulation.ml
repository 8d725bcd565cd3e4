(* population — the Tables 2-3 path on a warm store.  Each round builds,
   for every program, a seeded population of [2 * per_config] variants
   (alternately p0-30 and the budgeted full portfolio), censuses each
   against its baseline with Survivor and the Ropgadget verdict, and
   runs [Population.analyze] over the whole population.  Round 0 is the
   fixed set the exact metrics come from; later rounds use fresh
   versions, and the window ends with the round in which it closes, so
   every window holds whole rounds.  After the window, [spot_p030]
   p0-30 variants and one budgeted variant per program from round 0
   run on the train input against the IR interpreter, one of them once
   more with production sampling; on the ref input [ratio_p030] p0-30
   ones give the modeled overhead and the budgeted one's share of its
   budget is measured. *)

open Bcommon

let name = "population"
let per_config = 12
let spot_p030 = 3  (* p0-30 variants per program run on the train input *)
let ratio_p030 = 6  (* and on the ref input, for the overhead geomean *)

type state = prog list

let start progs = progs
let stop _ = ()
let pid _ = "self"

type window = {
  summary : Bwork.summary;
  census : census;
  nops : int;
  bytes_added : int;
  spot : (prog * Link.image list * Link.image list) list;
      (* round-0 p0-30 and budgeted variants to run *)
}

let summary w = w.summary

let window progs ~seed ~seconds tally =
  let base = version_base ~seed ~workload:name in
  let census0 = census () in
  let nops = ref 0 and bytes_added = ref 0 and spot = ref [] in
  let lat = ref [] and n_lat = ref 0 and work = ref 0 in
  let t0 = Clock.now_s () in
  let build ~round p =
    let spot_p = ref [] and spot_b = ref [] in
    let texts =
      List.init (2 * per_config) (fun i ->
          let config = if i mod 2 = 0 then p030 else budgeted in
          let version = version ~base ~round i in
          let id = Printf.sprintf "%s/%d" p.w.Workload.name version in
          let t1 = Clock.now_s () in
          Bstat.attempt tally id (fun () ->
              Bspan.with_ ~id "variant" (fun () ->
                  let image, report =
                    Bspan.with_ ~id "core" (fun () ->
                        Driver.diversify_linked p.compiled ~config
                          ~profile:p.profile ~version)
                  in
                  Ok (image, report, census_variant ~id p image)))
          |> Option.map (fun ((image : Link.image), report, cv) ->
                 lat := ((Clock.now_s () -. t1) *. 1e3) :: !lat;
                 incr n_lat;
                 incr work;
                 if round = 0 then begin
                   add_variant census0 p cv;
                   let n, b = divpass_counts report in
                   nops := !nops + n;
                   bytes_added := !bytes_added + b;
                   if i mod 2 = 0 && List.length !spot_p < ratio_p030 then
                     spot_p := image :: !spot_p
                   else if i mod 2 = 1 && !spot_b = [] then spot_b := [ image ]
                 end;
                 image.Link.text))
      |> List.filter_map Fun.id
    in
    let r = analyze ~id:p.w.Workload.name texts in
    if round = 0 then begin
      add_population census0 r;
      spot := (p, List.rev !spot_p, !spot_b) :: !spot
    end
  in
  let rss = ref nan in
  let rec rounds round =
    List.iter (build ~round) progs;
    if round = 0 then rss := vm_hwm_mb "self";
    if
      Bwork.continue ~t0 ~seconds ~min_samples:Bwork.min_samples ~samples:!n_lat
    then rounds (round + 1)
  in
  rounds 0;
  let window_s = Clock.now_s () -. t0 in
  {
    summary =
      { Bwork.work = !work; window_s; latencies_ms = !lat; peak_rss_mb = !rss };
    census = census0;
    nops = !nops;
    bytes_added = !bytes_added;
    spot = List.rev !spot;
  }

(* After the window, on round 0's spot variants: train-input spot
   checks of the first [spot_p030] p0-30 variants and the budgeted one,
   the first p0-30 variant per program recorded once more with
   production sampling, each program's budget plan checked against the
   budget, and ref-input runs of the baseline, all [ratio_p030] p0-30
   variants (the modeled-overhead ratios) and the budgeted one (its
   share of the budget). *)
let verify _ w tally =
  let acc =
    spot_checks tally
      (List.map (fun (p, a, b) -> (p, List.filteri (fun i _ -> i < spot_p030) a @ b)) w.spot)
  in
  let plain_rate = minsn_per_s acc in
  let sampled = sim_acc () in
  List.iter
    (fun (p, p030s, _) ->
      match p030s with
      | image :: _ ->
          let id = p.w.Workload.name ^ "/sampled" in
          Bstat.attempt tally id (fun () ->
              let r, exec_s =
                simulate ~sampled:true ~id ~span:"sim.sampled" p image
                  ~args:p.w.Workload.train_args
              in
              add_run sampled ~exec_s r;
              add_run acc ~exec_s r;
              check_output p r)
          |> ignore
      | [] -> ())
    w.spot;
  List.iter (fun (p, _, _) -> check_plan tally p) w.spot;
  let ratios, budget_ratios = ref_runs tally w.spot in
  (* The +b1 budget is known not to hold on the ref input for a few
     variants (see README.md); its use there is reported, not failed. *)
  let used =
    (* each one's ref-input overhead, in percent of the budget *)
    List.map (fun r -> 100.0 *. (100.0 *. (r -. 1.0)) /. budget_pct) budget_ratios
  in
  let busts = List.length (List.filter (fun u -> u > 100.0) used) in
  if busts > 0 then
    Printf.printf "budget: %d of %d budgeted variants over the %g%% budget on the ref input\n"
      busts (List.length used) budget_pct;
  {
    Bwork.census = w.census;
    exact = acc;
    ratios;
    extra =
      [
        ("divpass.nops_inserted", float_of_int w.nops);
        ("divpass.bytes_added", float_of_int w.bytes_added);
        ("sim.check_ms", check_ms acc);
        ("sim.plain_minsn_per_s", plain_rate);
        ("sim.sampled_minsn_per_s", minsn_per_s sampled);
        ("budget.ref_busts", float_of_int busts);
        ("budget.ref_use_pct", List.fold_left Float.max 0.0 used);
      ];
  }
