(** Reference interpreter for IR modules.

    This is the ground-truth semantics of the system: the x86 backend is
    correct when the simulator's observable behaviour (return value and
    output) matches this interpreter's.  It is also the profiling oracle —
    it counts every basic-block execution and every CFG-edge traversal, so
    the profile machinery and the optimal-counter-placement reconstruction
    can be validated against exact counts.

    Memory model: one flat 32-bit byte-addressed space.  An
    {!argv_words}-word argument area sits at the fixed data base (the
    image's [__argv]), then globals in declaration order; stack slots are
    carved from a downward-growing stack at the top.  Word accesses must
    be 4-aligned.  This mirrors the machine backend's layout exactly —
    same global addresses, same bounds, same argv contents — so address
    arithmetic, and in particular which accesses trap, behaves
    identically (see the trap-parity notes in DESIGN.md).

    Each run resolves the module once before executing anything —
    functions by name (the first definition wins), branch targets by
    label (the first block carrying it wins), stack slots, globals — and
    then executes pre-resolved code with native-int counters, which it
    folds into {!counts} at the end.  The tables are filled in
    first-execution order, so [Hashtbl.fold] over them visits keys in
    the same order from run to run.  [test/golden_interp.json] pins
    every observable of a fixed set of runs. *)

type counts = {
  blocks : (string * Ir.label, int64) Hashtbl.t;
      (** executions of each basic block, keyed by (function, label) *)
  edges : (string * Ir.label * Ir.label, int64) Hashtbl.t;
      (** traversals of each CFG edge *)
  calls : (string, int64) Hashtbl.t;  (** invocations per function *)
}

type result = {
  ret : int32;  (** return value of the entry function (or exit code) *)
  output : string;  (** everything written by print builtins *)
  steps : int64;  (** IR instructions + terminators executed *)
  counts : counts;
}

exception Trap of string
(** Runtime error: division by zero, out-of-bounds or unaligned access,
    unknown callee, call-stack overflow, or fuel exhaustion.  Two come
    from a malformed module rather than the program's execution: globals
    that do not fit [mem_words] (["globals exceed memory"], raised before
    any initializer is written), and a branch to a label no block of the
    function carries (["branch to unknown label L in F"], raised only
    when that edge is taken). *)

val argv_words : int
(** Words reserved for the argument area at the bottom of the data space
    — must equal [Libc.argv_words] (pinned by a test; psd_ir cannot
    depend on psd_link). *)

val run :
  ?fuel:int64 -> ?mem_words:int -> Ir.modul -> entry:string ->
  args:int32 list -> result
(** [run m ~entry ~args] executes [entry] with [args].  [fuel] bounds the
    step count (default [2^40]); exceeding it raises {!Trap}.
    [mem_words] sizes the address space (default 1 Mi words = 4 MiB).
    Raises [Invalid_argument] if [args] exceeds {!argv_words} (the
    simulator rejects the same programs). *)
