(* The fuzz harness itself: determinism (the whole run is a pure
   function of the seed), the no-crash contract on a few hundred
   inputs, and the report arithmetic. *)

module F = Csrtl_fuzz.Fuzz

let report = Alcotest.testable F.pp_report ( = )

let test_deterministic () =
  let r1 = F.run ~seed:1234 ~runs:150 F.all_targets in
  let r2 = F.run ~seed:1234 ~runs:150 F.all_targets in
  Alcotest.check report "same seed, same report" r1 r2;
  let r3 = F.run ~seed:1235 ~runs:150 F.all_targets in
  Alcotest.(check bool) "different seed explores differently" true
    (r1.F.accepted <> r3.F.accepted || r1.F.rejected <> r3.F.rejected)

let test_no_crashes () =
  let r = F.run ~seed:7 ~runs:300 F.all_targets in
  Alcotest.(check int) "no escaped exceptions" 0 (List.length r.F.crashes);
  Alcotest.(check int) "every input accounted for" r.F.runs
    (r.F.accepted + r.F.rejected)

let test_single_targets () =
  List.iter
    (fun t ->
      let r = F.run ~seed:99 ~runs:60 [ t ] in
      Alcotest.(check int)
        (F.target_to_string t ^ " alone: no crashes")
        0
        (List.length r.F.crashes);
      (* the generators are grammar-aware enough that some inputs pass *)
      Alcotest.(check bool)
        (F.target_to_string t ^ " exercises both outcomes")
        true
        (r.F.accepted > 0 && r.F.rejected > 0))
    F.all_targets

let test_target_names () =
  List.iter
    (fun t ->
      Alcotest.(check bool) "round trip" true
        (F.target_of_string (F.target_to_string t) = Some t))
    F.all_targets;
  Alcotest.(check bool) "unknown rejected" true
    (F.target_of_string "elf" = None)

let test_exercise_direct () =
  (* well-formed seeds sail through; garbage is rejected, not thrown *)
  Alcotest.(check bool) "clean rtm accepted" true
    (F.exercise F.Rtm
       "model m\ncsmax 2\nreg A init 1\nbus B1\nunit P ops pass latency \
        1\ntransfer A B1 - - 1 P:pass 2 B1 A\n"
     = `Clean);
  Alcotest.(check bool) "garbage rejected" true
    (F.exercise F.Rtm "\x00\xff garbage \x01" = `Rejected);
  Alcotest.(check bool) "garbage vhdl rejected" true
    (F.exercise F.Vhdl "entity \x80 is port" = `Rejected);
  let module E = Csrtl_serve.Engine in
  let job =
    { E.cfg = E.default_config;
      q =
        { Csrtl_serve.Frame.model = "model m\ncsmax 2\nreg A init 1\n";
          engine = `Kernel; batch = 8; limit = Some 3; budget_ms = None;
          deadline_ms = Some 5; table = true; stream = false; resume = true };
      golden = `Hit "artifact\nbytes\n"; chaos = [] }
  in
  Alcotest.(check bool) "encoded worker job accepted" true
    (F.exercise F.Job (E.encode_job job) = `Clean);
  Alcotest.(check bool) "worker job without a header rejected" true
    (F.exercise F.Job "{}\n" = `Rejected)

let () =
  Alcotest.run "fuzz"
    [ ( "harness",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "no crashes in 300 runs" `Quick test_no_crashes;
          Alcotest.test_case "single targets" `Quick test_single_targets;
          Alcotest.test_case "target names" `Quick test_target_names;
          Alcotest.test_case "exercise direct" `Quick test_exercise_direct ]
      ) ]
