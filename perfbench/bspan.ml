(* Bench-side layer spans.  Every call the benchmark makes into a layer
   runs under [with_]: the span goes to the global {!Trace} (exported
   when a traced run ends) and is accounted here for self time — the
   span's duration minus the time its direct child spans cover.  Spans
   nest strictly on one thread, so the children of an open span never
   overlap and their durations simply add up. *)

type acc = {
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable alloc_w : float;  (* words allocated inside, children included *)
}

type t = {
  clock : unit -> float;
  table : (string, acc) Hashtbl.t;
  mutable open_children : float ref list;
      (* one child-time accumulator per open span, innermost first *)
  mutable on : bool;
}

let create ?(clock = Clock.now_s) () =
  { clock; table = Hashtbl.create 32; open_children = []; on = false }

let global = create ()

let acc t name =
  match Hashtbl.find_opt t.table name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_s = 0.0; self_s = 0.0; alloc_w = 0.0 } in
      Hashtbl.replace t.table name a;
      a

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let measure t name f =
  let children = ref 0.0 in
  t.open_children <- children :: t.open_children;
  let w0 = allocated_words () in
  let t0 = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let d = t.clock () -. t0 in
      let w = allocated_words () -. w0 in
      (match t.open_children with
      | _ :: (parent :: _ as rest) ->
          parent := !parent +. d;
          t.open_children <- rest
      | _ -> t.open_children <- []);
      let a = acc t name in
      a.count <- a.count + 1;
      a.total_s <- a.total_s +. d;
      a.self_s <- a.self_s +. (d -. !children);
      a.alloc_w <- a.alloc_w +. w)
    f

(* [with_ ~id name f] runs [f] as layer span [name]; [id] is the variant
   or request the call works for, shared by every span of that unit. *)
let with_ ?(t = global) ?id name f =
  if not t.on then f ()
  else
    let args = match id with Some id -> [ ("id", id) ] | None -> [] in
    measure t name (fun () -> Trace.with_span ~cat:"perfbench" ~args name f)

let enable ?(t = global) () =
  Hashtbl.reset t.table;
  t.open_children <- [];
  t.on <- true

let disable ?(t = global) () = t.on <- false

(* The accounts collected since the last [snapshot] (or [enable]), by
   span name; the table starts afresh. *)
let snapshot ?(t = global) () =
  let s = Hashtbl.copy t.table in
  Hashtbl.reset t.table;
  s

let find snap name =
  match Hashtbl.find_opt snap name with
  | Some a -> a
  | None -> { count = 0; total_s = 0.0; self_s = 0.0; alloc_w = 0.0 }
