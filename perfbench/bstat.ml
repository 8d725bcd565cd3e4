(* The benchmark's own arithmetic: tail percentiles under the
   ten-samples-beyond rule, modeled-overhead geomeans, and the
   failure tally behind [fail_ratio].  Kept free of any layer so the
   unit tests can pin it. *)

(* Samples strictly inside the top (100 - p)% of [n]: integer
   arithmetic, so p90 of exactly 100 samples has exactly 10 beyond
   (the float form [n *. (1. -. 0.9)] lands just under 10). *)
let beyond ~p n = n * (100 - p) / 100

(* A percentile is reported only with this many samples beyond it. *)
let min_beyond = 10

let min_samples p = (min_beyond * 100 + (100 - p) - 1) / (100 - p)

(* The [p]-th percentile, reported only when at least [min_beyond]
   samples lie beyond it; [None] otherwise. *)
let tail ~p samples =
  if p <= 0 || p >= 100 then invalid_arg "Bstat.tail: p must be in 1..99";
  if beyond ~p (List.length samples) >= min_beyond then
    Some (Stats.percentile (float_of_int p) samples)
  else None

(* The highest percentile of the ladder that [tail] can report. *)
let highest_tail samples =
  List.find_map
    (fun p -> Option.map (fun v -> (p, v)) (tail ~p samples))
    [ 99; 95; 90; 75; 50 ]

(* Geomean of variant/baseline cycle ratios as a percent overhead — the
   paper's Figure-4 aggregate. *)
let overhead_pct ratios = 100.0 *. (Stats.geomean_ratio ratios -. 1.0)

(* Operations attempted and failed.  An operation fails when a check
   rejects it or it raises; a failure is [Wrong] when an output it
   delivered differs from its reference (the result is then not
   correct) and [Failed] when it delivered nothing or broke a promise
   such as an overhead budget.  The first few reasons are kept for the
   report. *)
type failure = Wrong of string | Failed of string

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable reasons : string list;  (* newest first, at most [keep] *)
}

let keep = 8
let tally () = { attempted = 0; failed = 0; wrong = 0; reasons = [] }

(* Count a failure of an operation already attempted — also one whose
   result a later check rejects. *)
let fail t what failure =
  t.failed <- t.failed + 1;
  let msg =
    match failure with
    | Wrong m ->
        t.wrong <- t.wrong + 1;
        m
    | Failed m -> m
  in
  if List.length t.reasons < keep then t.reasons <- (what ^ ": " ^ msg) :: t.reasons

(* Run one operation and count it. *)
let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | Ok v -> Some v
  | Error failure ->
      fail t what failure;
      None
  | exception e ->
      fail t what (Failed (Printexc.to_string e));
      None

let correct t = t.wrong = 0

let fail_ratio t =
  if t.attempted = 0 then invalid_arg "Bstat.fail_ratio: nothing attempted";
  float_of_int t.failed /. float_of_int t.attempted
