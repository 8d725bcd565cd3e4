type counts = {
  blocks : (string * Ir.label, int64) Hashtbl.t;
  edges : (string * Ir.label * Ir.label, int64) Hashtbl.t;
  calls : (string, int64) Hashtbl.t;
}

type result = { ret : int32; output : string; steps : int64; counts : counts }

exception Trap of string

exception Program_exit of int
(* Raised by the [exit] builtin to unwind the interpreter. *)

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

(* The base byte address of the global area; below it is unmapped so that
   null-ish pointers trap, as on a real OS. *)
let globals_base = 0x1000

(* The linked image places the __argv array (Libc.argv_words = 8 words)
   at the bottom of the data space, before the program's own globals.
   Reserve and populate the same 8 words here so both executions agree on
   every global's absolute address and on the contents of the argv area —
   without this, an access that is out of bounds relative to one layout
   can be silently in bounds relative to the other.  (psd_ir cannot
   depend on psd_link, so the constant is duplicated; a test pins the two
   together.) *)
let argv_words = 8

(* Bounds recursion even for frames with no stack slots; a real machine
   would exhaust its stack on the return addresses alone. *)
let max_call_depth = 10_000

(* Temps and memory words live as canonical sign-extended 32-bit values
   in native ints (OCaml ints are 63-bit, so 32-bit wrap-around is a
   shift pair instead of a boxed [int32]). *)
let[@inline] sext32 x = (x lsl 31) asr 31

(* ------------------------------------------------------------------ *)
(* Counters.  Each [counts] key gets one mutable cell at resolve time;
   a tally remembers the order in which its cells were first bumped, so
   folding them into the result tables at the end of the run inserts the
   keys in first-execution order — the order the tables were filled in
   when every bump went through [Hashtbl.replace] — and every
   [Hashtbl.fold] over them visits the same sequence. *)

type 'k cell = { key : 'k; mutable n : int }
type 'k tally = { mutable seen : 'k cell list (* newest first *) }

let[@inline] bump t c =
  if c.n = 0 then t.seen <- c :: t.seen;
  c.n <- c.n + 1

let fold_into tbl t =
  List.iter
    (fun c -> Hashtbl.replace tbl c.key (Int64.of_int c.n))
    (List.rev t.seen)

type state = {
  mem : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* word-indexed *)
  mem_bytes : int;
  out : Buffer.t;
  mutable sp : int; (* byte address of the stack top *)
  mutable fp : int; (* frame top of the executing function *)
  mutable depth : int; (* current call depth *)
  mutable steps : int;
  fuel : int;
  block_tally : (string * Ir.label) tally;
  edge_tally : (string * Ir.label * Ir.label) tally;
  call_tally : string tally;
}

let[@inline] step st =
  let s = st.steps + 1 in
  st.steps <- s;
  if s > st.fuel then trap "fuel exhausted after %d steps" s

(* The trap for a load or store that fails its checks, kept out of line
   so the checks themselves inline into every access. *)
let bad_access what a =
  if a land 3 <> 0 then trap "unaligned %s at 0x%x" what a
  else trap "%s out of bounds: 0x%x" what a

let[@inline] load st v =
  let a = v land 0xFFFFFFFF in
  if a land 3 <> 0 || a < globals_base || a >= st.mem_bytes then
    bad_access "load" a
  else Int32.to_int (Bigarray.Array1.unsafe_get st.mem (a lsr 2))

let[@inline] store st v x =
  let a = v land 0xFFFFFFFF in
  if a land 3 <> 0 || a < globals_base || a >= st.mem_bytes then
    bad_access "store" a
  else Bigarray.Array1.unsafe_set st.mem (a lsr 2) (Int32.of_int x)

(* ------------------------------------------------------------------ *)
(* The resolved program.  Function, block, slot and global lookups all
   happen here, once per run; execution only follows pointers.  A name
   or label that does not resolve becomes code that traps when (and only
   when) it is reached, so a program that never reaches it behaves as if
   it were well formed. *)

(* One activation: the function's temps, then its constant pool, so
   every operand is a frame index.  Resolution checks every temp an
   instruction names against the frame, so execution indexes it
   unchecked. *)
type frame = int array

let[@inline] get (fr : frame) i = Array.unsafe_get fr i
let[@inline] set (fr : frame) i v = Array.unsafe_set fr i v

type rfunc = {
  fname : string;
  nparams : int;
  ntemps : int;
  mutable template : frame; (* zeroed temps, then the constants *)
  frame_bytes : int; (* total size of the stack slots *)
  slot_peak : int;
      (* the largest running total of slot bytes: allocation traps iff
         the stack top is at or below it ([min_int] without slots) *)
  mutable entry : rblock option; (* [None]: the function has no blocks *)
}

and rblock = {
  bcell : (string * Ir.label) cell;
  code : (frame -> unit) array;
  mutable term : rterm;
}

and rterm =
  | Ret of int
  | Jmp of edge
  | Br of Ir.relop * int * int * edge * edge (* taken, fallthrough *)
  | Malformed (* names a temp outside the frame *)

and edge = {
  ecell : (string * Ir.label * Ir.label) cell;
  target : rblock option; (* [None]: no block carries the label *)
  dst : Ir.label;
  efunc : string;
}

(* Naming a temp outside the frame was an out-of-bounds array access; it
   still raises the same exception, when the instruction executes. *)
let malformed _ = invalid_arg "index out of bounds"

(* ------------------------------------------------------------------ *)
(* Execution. *)

let rec exec_block st fr b =
  bump st.block_tally b.bcell;
  let code = b.code in
  for i = 0 to Array.length code - 1 do
    step st;
    (Array.unsafe_get code i) fr
  done;
  step st;
  match b.term with
  | Ret x -> get fr x
  | Jmp e -> take st fr e
  | Br (rel, x, y, e1, e2) ->
      let a = get fr x and b = get fr y in
      let taken =
        match rel with
        | Ir.Eq -> a = b
        | Ir.Ne -> a <> b
        | Ir.Lt -> a < b
        | Ir.Le -> a <= b
        | Ir.Gt -> a > b
        | Ir.Ge -> a >= b
      in
      take st fr (if taken then e1 else e2)
  | Malformed -> malformed ()

and take st fr e =
  bump st.edge_tally e.ecell;
  match e.target with
  | Some b -> exec_block st fr b
  | None -> trap "branch to unknown label %d in %s" e.dst e.efunc

(* Run [rf] on the frame [fr] its caller filled with the arguments:
   carve its stack slots (4-aligned, stack grows down) and execute from
   the entry block. *)
let enter st rf fr =
  let saved_sp = st.sp and saved_fp = st.fp in
  if st.sp <= rf.slot_peak then trap "stack overflow in %s" rf.fname;
  st.fp <- st.sp;
  st.sp <- st.sp - rf.frame_bytes;
  match rf.entry with
  | None -> trap "%s has no blocks" rf.fname
  | Some b ->
      let v = exec_block st fr b in
      st.sp <- saved_sp;
      st.fp <- saved_fp;
      v

(* ------------------------------------------------------------------ *)
(* Resolution. *)

type env = {
  st : state;
  funcs : (string, rfunc) Hashtbl.t; (* the first definition of a name *)
  call_cells : (string, string cell) Hashtbl.t;
  global_addrs : (string, int) Hashtbl.t;
}

(* The function being resolved. *)
type fctx = {
  f : Ir.func;
  rf : rfunc;
  consts : (int, int) Hashtbl.t; (* value -> frame index *)
  slot_offsets : (int, int) Hashtbl.t; (* slot id -> bytes below the frame top *)
}

let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = { key; n = 0 } in
      Hashtbl.replace tbl key c;
      c

let index fc = function
  | Ir.Temp t -> t
  | Ir.Const c -> (
      let v = Int32.to_int c in
      match Hashtbl.find_opt fc.consts v with
      | Some i -> i
      | None ->
          let i = fc.rf.ntemps + Hashtbl.length fc.consts in
          Hashtbl.replace fc.consts v i;
          i)

let in_frame fc ops =
  List.for_all
    (function Ir.Temp t -> t >= 0 && t < fc.rf.ntemps | Ir.Const _ -> true)
    ops

(* A call of [name] with the frame slots [args], returning the callee's
   result.  The checks run in a fixed order on every call: count it,
   bound the depth, then either a builtin (unknown names trap here) or
   the arity check and the callee's body. *)
let compile_call env name (args : int array) : frame -> int =
  let st = env.st in
  let nargs = Array.length args in
  let body : frame -> int =
    match Hashtbl.find_opt env.funcs name with
    | Some rf ->
        if nargs <> rf.nparams then fun _ ->
          trap "%s called with %d args (expected %d)" name nargs rf.nparams
        else if nargs > rf.ntemps then malformed
        else fun fr ->
          let callee = Array.copy rf.template in
          for i = 0 to nargs - 1 do
            set callee i (get fr (Array.unsafe_get args i))
          done;
          enter st rf callee
    | None -> (
        match (name, args) with
        | "print_int", [| x |] ->
            fun fr ->
              Buffer.add_string st.out (string_of_int (get fr x));
              Buffer.add_char st.out '\n';
              0
        | "put_char", [| x |] ->
            fun fr ->
              Buffer.add_char st.out (Char.chr (get fr x land 0xFF));
              0
        | "exit", [| x |] -> fun fr -> raise (Program_exit (get fr x))
        | _ -> fun _ -> trap "unknown builtin %s/%d" name nargs)
  in
  let c = cell env.call_cells name in
  fun fr ->
    bump st.call_tally c;
    let d = st.depth + 1 in
    st.depth <- d;
    if d > max_call_depth then trap "call stack overflow in %s" name;
    let v = body fr in
    st.depth <- d - 1;
    v

let compile_binop fname op t x y : frame -> unit =
  let division f =
   fun fr ->
    let a = get fr x and b = get fr y in
    if b = 0 || (a = -0x8000_0000 && b = -1) then
      trap "division error in %s (%d %s %d)" fname a (Ir.binop_name op) b
    else set fr t (f a b)
  in
  (* Shift counts are masked to 5 bits, as the hardware does. *)
  match op with
  | Ir.Add -> fun fr -> set fr t (sext32 (get fr x + get fr y))
  | Ir.Sub -> fun fr -> set fr t (sext32 (get fr x - get fr y))
  | Ir.Mul -> fun fr -> set fr t (sext32 (get fr x * get fr y))
  | Ir.Div -> division ( / )
  | Ir.Rem -> division ( mod )
  | Ir.And -> fun fr -> set fr t (get fr x land get fr y)
  | Ir.Or -> fun fr -> set fr t (get fr x lor get fr y)
  | Ir.Xor -> fun fr -> set fr t (get fr x lxor get fr y)
  | Ir.Shl -> fun fr -> set fr t (sext32 (get fr x lsl (get fr y land 31)))
  | Ir.Shr ->
      fun fr ->
        set fr t (sext32 ((get fr x land 0xFFFFFFFF) lsr (get fr y land 31)))
  | Ir.Sar -> fun fr -> set fr t (get fr x asr (get fr y land 31))

let compile_cmp rel t x y : frame -> unit =
  let b2i c = if c then 1 else 0 in
  match rel with
  | Ir.Eq -> fun fr -> set fr t (b2i (get fr x = get fr y))
  | Ir.Ne -> fun fr -> set fr t (b2i (get fr x <> get fr y))
  | Ir.Lt -> fun fr -> set fr t (b2i (get fr x < get fr y))
  | Ir.Le -> fun fr -> set fr t (b2i (get fr x <= get fr y))
  | Ir.Gt -> fun fr -> set fr t (b2i (get fr x > get fr y))
  | Ir.Ge -> fun fr -> set fr t (b2i (get fr x >= get fr y))

let compile_instr env fc (i : Ir.instr) : frame -> unit =
  let defs = match Ir.def_temp i with Some t -> [ Ir.Temp t ] | None -> [] in
  if not (in_frame fc (defs @ Ir.instr_uses i)) then malformed
  else
    let st = env.st and ix = index fc in
    match i with
    | Ir.Bin (op, t, a, b) -> compile_binop fc.f.name op t (ix a) (ix b)
    | Ir.Neg (t, a) ->
        let x = ix a in
        fun fr -> set fr t (sext32 (-get fr x))
    | Ir.Not (t, a) ->
        let x = ix a in
        fun fr -> set fr t (lnot (get fr x))
    | Ir.Cmp (rel, t, a, b) -> compile_cmp rel t (ix a) (ix b)
    | Ir.Copy (t, a) ->
        let x = ix a in
        fun fr -> set fr t (get fr x)
    | Ir.Load (t, a) ->
        let x = ix a in
        fun fr -> set fr t (load st (get fr x))
    | Ir.Store (a, v) ->
        let x = ix a and y = ix v in
        fun fr -> store st (get fr x) (get fr y)
    | Ir.Global_addr (t, g) -> (
        match Hashtbl.find_opt env.global_addrs g with
        | Some a ->
            let a = sext32 a in
            fun fr -> set fr t a
        | None -> fun _ -> trap "unknown global %s" g)
    | Ir.Stack_addr (t, s) -> (
        match Hashtbl.find_opt fc.slot_offsets s with
        | Some off -> fun fr -> set fr t (sext32 (st.fp - off))
        | None -> fun _ -> trap "unknown slot %d in %s" s fc.f.name)
    | Ir.Call (dst, callee, args) -> (
        let call = compile_call env callee (Array.of_list (List.map ix args)) in
        match dst with
        | None -> fun fr -> ignore (call fr)
        | Some t -> fun fr -> set fr t (call fr))

let compile_term fc by_label (b : Ir.block) : rterm =
  if not (in_frame fc (Ir.term_uses b.term)) then Malformed
  else
    let name = fc.f.name and ix = index fc in
    (* Both arms of a branch to one label are one CFG edge. *)
    let edge_cells = Hashtbl.create 2 in
    let edge dst =
      {
        ecell = cell edge_cells (name, b.label, dst);
        target = Hashtbl.find_opt by_label dst;
        dst;
        efunc = name;
      }
    in
    match b.term with
    | Ir.Ret None -> Ret (ix (Ir.Const 0l))
    | Ir.Ret (Some o) -> Ret (ix o)
    | Ir.Jmp l -> Jmp (edge l)
    | Ir.Cbr (rel, a, c, l1, l2) -> Br (rel, ix a, ix c, edge l1, edge l2)
    | Ir.Cbr_nz (a, l1, l2) ->
        Br (Ir.Ne, ix a, ix (Ir.Const 0l), edge l1, edge l2)

(* Fill in the body and frame template of [fc.rf], the first definition
   of [fc.f.name]. *)
let compile_func env fc =
  let f = fc.f in
  let block_cells = Hashtbl.create 16 in
  let rblocks =
    List.map
      (fun (b : Ir.block) ->
        {
          bcell = cell block_cells (f.name, b.label);
          code = Array.of_list (List.map (compile_instr env fc) b.instrs);
          term = Malformed (* set below, once every block exists *);
        })
      f.blocks
  in
  (* The first block carrying a label is the one a branch to it reaches. *)
  let by_label = Hashtbl.create 16 in
  List.iter2
    (fun (b : Ir.block) rb ->
      if not (Hashtbl.mem by_label b.label) then
        Hashtbl.replace by_label b.label rb)
    f.blocks rblocks;
  List.iter2
    (fun b rb -> rb.term <- compile_term fc by_label b)
    f.blocks rblocks;
  fc.rf.entry <- List.nth_opt rblocks 0;
  let template = Array.make (fc.rf.ntemps + Hashtbl.length fc.consts) 0 in
  Hashtbl.iter (fun v i -> template.(i) <- v) fc.consts;
  fc.rf.template <- template

let resolve st (modul : Ir.modul) global_addrs =
  let env =
    {
      st;
      funcs = Hashtbl.create 16;
      call_cells = Hashtbl.create 16;
      global_addrs;
    }
  in
  let fcs =
    List.filter_map
      (fun (f : Ir.func) ->
        if Hashtbl.mem env.funcs f.name then None
        else
          (* Slot [k] sits at the frame top minus the running total of
             slot bytes up to and including it; a repeated slot id names
             the later slot. *)
          let slot_offsets = Hashtbl.create 4 in
          let frame_bytes, slot_peak =
            List.fold_left
              (fun (total, peak) (s : Ir.slot) ->
                let total = total + (4 * s.Ir.size_words) in
                Hashtbl.replace slot_offsets s.Ir.slot_id total;
                (total, max peak total))
              (0, min_int) f.slots
          in
          let rf =
            {
              fname = f.name;
              nparams = List.length f.params;
              ntemps = max f.next_temp 1;
              template = [||];
              frame_bytes;
              slot_peak;
              entry = None;
            }
          in
          Hashtbl.replace env.funcs f.name rf;
          Some { f; rf; consts = Hashtbl.create 8; slot_offsets })
      modul.funcs
  in
  List.iter (compile_func env) fcs;
  env

let run ?(fuel = Int64.shift_left 1L 40) ?(mem_words = 1 lsl 20)
    (modul : Ir.modul) ~entry ~args =
  if List.length args > argv_words then
    invalid_arg "Interp.run: too many arguments";
  let mem = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout mem_words in
  Bigarray.Array1.fill mem 0l;
  let mem_bytes = mem_words * 4 in
  (* Mirror the machine image's data layout: the argv area first (holding
     the entry arguments, exactly as the simulator writes them before
     execution), then the globals in declaration order, with
     initializers copied in — once the layout is known to fit. *)
  let limit, placed =
    List.fold_left_map
      (fun next (g : Ir.global) -> (next + (4 * g.size_words), (g, next)))
      (globals_base + (4 * argv_words))
      modul.globals
  in
  if limit > mem_bytes then trap "globals exceed memory";
  let global_addrs = Hashtbl.create 16 in
  List.iter
    (fun ((g : Ir.global), a) -> Hashtbl.replace global_addrs g.gname a)
    placed;
  List.iteri (fun i v -> mem.{(globals_base lsr 2) + i} <- v) args;
  List.iter
    (fun ((g : Ir.global), a) ->
      match g.init with
      | Some init ->
          if (a lsr 2) + Array.length init > mem_words then
            trap "globals exceed memory";
          Array.iteri (fun i v -> mem.{(a lsr 2) + i} <- v) init
      | None -> ())
    placed;
  let st =
    {
      mem;
      mem_bytes;
      out = Buffer.create 256;
      sp = mem_bytes;
      fp = mem_bytes;
      depth = 0;
      steps = 0;
      (* Clamped so the step counter cannot overflow; no run gets near. *)
      fuel =
        Int64.to_int
          (Int64.min (Int64.max fuel (-1L)) (Int64.shift_left 1L 61));
      block_tally = { seen = [] };
      edge_tally = { seen = [] };
      call_tally = { seen = [] };
    }
  in
  let env = resolve st modul global_addrs in
  let nargs = List.length args in
  let main = compile_call env entry (Array.init nargs Fun.id) in
  let argv = Array.of_list (List.map Int32.to_int args) in
  let ret = try main argv with Program_exit code -> code in
  let counts =
    {
      blocks = Hashtbl.create 64;
      edges = Hashtbl.create 64;
      calls = Hashtbl.create 16;
    }
  in
  fold_into counts.blocks st.block_tally;
  fold_into counts.edges st.edge_tally;
  fold_into counts.calls st.call_tally;
  {
    ret = Int32.of_int ret;
    output = Buffer.contents st.out;
    steps = Int64.of_int st.steps;
    counts;
  }
