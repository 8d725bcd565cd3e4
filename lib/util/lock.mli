(** A plain mutual-exclusion lock.

    The observability registries ({!Metrics}, {!Trace}) and the shared
    caches are global mutable state; every mutation goes through one of
    these so they stay consistent under any concurrent caller.  The pool
    runs workers as separate processes, so today the lock is never
    contended; its uncontended cost is a few nanoseconds, far below the
    cost of the instrumented operations themselves. *)

type t

val create : unit -> t

val protect : t -> (unit -> 'a) -> 'a
(** [protect t f] runs [f] holding [t]; the lock is released even if [f]
    raises. *)
