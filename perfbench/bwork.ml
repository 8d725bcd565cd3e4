(* The shape every workload has: a set-up beyond the programs (timed as
   part of set-up), a timed window, and untimed verification that feeds
   the census, the exact simulator counts and the failure tally. *)

type summary = {
  work : int;  (* variants built (or delivered) in the window *)
  window_s : float;
  latencies_ms : float list;  (* one per request *)
  peak_rss_mb : float;
      (* the working process's peak while doing the fixed seeded set:
         a function of the work, where the whole window's peak would
         also depend on how many rounds the host's speed allowed *)
}

type verified = {
  census : Bcommon.census;  (* the workload's fixed seeded variant set *)
  exact : Bcommon.sim_acc;  (* simulator runs of the fixed set *)
  ratios : float list;  (* variant / baseline modeled cycles, p0-30 family *)
  extra : (string * float) list;  (* workload-specific per-layer values *)
}

module type S = sig
  type state
  type window

  val name : string

  val start : Bcommon.prog list -> state
  val stop : state -> unit

  val pid : state -> string
  (** The process doing the work (["self"] or the daemon's pid); its
      peak-RSS mark is reset when the window starts. *)

  val window :
    state -> seed:int -> seconds:float -> Bstat.tally -> window

  val summary : window -> summary
  val verify : state -> window -> Bstat.tally -> verified
end

(* Keep measuring until [seconds] have passed and [min_samples]
   latencies exist, but never more than a minute past [seconds]. *)
let continue ~t0 ~seconds ~min_samples ~samples =
  let elapsed = Clock.now_s () -. t0 in
  elapsed < seconds +. 60.0 && (elapsed < seconds || samples < min_samples)

(* Windows run until p99 has ten latencies beyond it. *)
let min_samples = Bstat.min_samples 99
