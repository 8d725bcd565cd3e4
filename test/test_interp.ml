(* Tests for the IR interpreter itself: the committed golden fixture (see
   golden_interp.ml) that pins its observable results, the name and label
   resolution rules, and the malformed inputs that must trap rather than
   crash. *)

let test_golden () =
  let pins =
    Golden_interp.of_json (Golden_interp.read_file "golden_interp.json")
  in
  Alcotest.(check int) "row count" 42 (List.length pins);
  List.iter Golden_interp.check pins

(* ---- hand-built modules ---- *)

let block label instrs term = { Ir.label; instrs; term }

let func ?(params = []) ?(next_temp = 1) name blocks =
  { Ir.name; params; blocks; slots = []; next_temp; next_label = 100 }

let modul ?(globals = []) funcs = { Ir.funcs; globals }

let expect_trap what want thunk =
  match thunk () with
  | exception Interp.Trap msg -> Alcotest.(check string) what want msg
  | r -> Alcotest.failf "%s: expected a trap, returned %ld" what r.Interp.ret

let ret_const n = Ir.Ret (Some (Ir.Const n))
let main_returning_0 = func "main" [ block 0 [] (ret_const 0l) ]

let test_global_exceeds_memory () =
  let global init =
    { Ir.gname = "big"; size_words = 4096; init }
  in
  let run g =
    Interp.run ~mem_words:2048
      (modul ~globals:[ g ] [ main_returning_0 ])
      ~entry:"main" ~args:[]
  in
  expect_trap "uninitialized global" "globals exceed memory" (fun () ->
      run (global None));
  expect_trap "initialized global" "globals exceed memory" (fun () ->
      run (global (Some (Array.make 4096 7l))));
  (* The same global fits the default memory and reads back. *)
  let m =
    modul
      ~globals:[ global (Some (Array.make 4096 7l)) ]
      [
        func ~next_temp:2 "main"
          [
            block 0
              [ Ir.Global_addr (0, "big"); Ir.Load (1, Ir.Temp 0) ]
              (Ir.Ret (Some (Ir.Temp 1)));
          ];
      ]
  in
  Alcotest.(check int32) "initializer visible" 7l
    (Interp.run m ~entry:"main" ~args:[]).Interp.ret

let test_branch_to_missing_label () =
  let m taken =
    modul
      [
        func "main"
          [
            block 0 [] (Ir.Cbr_nz (Ir.Const taken, 99, 1));
            block 1 [] (ret_const 7l);
          ];
      ]
  in
  (* Only the edge that is taken is resolved at run time. *)
  let r = Interp.run (m 0l) ~entry:"main" ~args:[] in
  Alcotest.(check int32) "untaken edge is harmless" 7l r.Interp.ret;
  Alcotest.(check int64) "steps" 2L r.Interp.steps;
  expect_trap "taken edge" "branch to unknown label 99 in main" (fun () ->
      Interp.run (m 1l) ~entry:"main" ~args:[])

(* A call reaches the first function of a name, a branch the first block
   of a label — the lookups the interpreter always made. *)
let test_first_definition_wins () =
  let m =
    modul
      [
        func ~next_temp:1 "main"
          [
            block 0 [ Ir.Call (Some 0, "f", []) ] (Ir.Jmp 1);
            block 1 [] (Ir.Ret (Some (Ir.Temp 0)));
            block 1 [] (ret_const 20l);
          ];
        func "f" [ block 0 [] (ret_const 1l) ];
        func "f" [ block 0 [] (ret_const 2l) ];
      ]
  in
  let r = Interp.run m ~entry:"main" ~args:[] in
  Alcotest.(check int32) "first f, first block 1" 1l r.Interp.ret;
  Alcotest.(check (list (pair string int64)))
    "calls"
    [ ("f", 1L); ("main", 1L) ]
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.Interp.counts.calls []))

let suite =
  [
    ( "interp",
      [
        Alcotest.test_case "golden fixture" `Quick test_golden;
        Alcotest.test_case "oversized global traps" `Quick
          test_global_exceeds_memory;
        Alcotest.test_case "branch to a missing label traps" `Quick
          test_branch_to_missing_label;
        Alcotest.test_case "first definition wins" `Quick
          test_first_definition_wins;
      ] );
  ]
