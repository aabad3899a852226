(* Differential lockdown of the static-schedule executor run alone:
   for any model the three realizations — event kernel (Simulate),
   dedicated semantics (Interp), and the batch arena's golden row
   (Batch with K = 0, what [--engine compiled] runs) — must agree on
   the full observation, and the cycle count the arena reads off the
   delta-cycle law must be what the kernel measures. *)

open Csrtl_core
module Consist = Csrtl_verify.Consist

let check_bool = Alcotest.(check bool)

let obs_pp ppf o = Observation.pp ppf o

let agree name a b =
  if not (Observation.equal a b) then
    Alcotest.failf "%s disagree:@.%a@.vs@.%a@.diff: %s" name obs_pp a
      obs_pp b
      (String.concat "; " (Observation.diff a b))

let golden plan = fst (Batch.golden_with plan [])

(* the arena's cycle count of an uninjected run from reset *)
let cycles plan =
  Simulate.expected_cycles_with (Batch.legs plan) ~inject:Inject.none 0

let three_way m =
  let plan = Batch.plan m in
  let compiled = golden plan in
  let interp = Interp.run m in
  let kernel = Simulate.run m in
  agree "compiled/interp" compiled interp;
  agree "compiled/kernel" compiled kernel.Simulate.obs;
  if cycles plan <> kernel.Simulate.cycles then
    Alcotest.failf "cycle law: compiled says %d, kernel ran %d" (cycles plan)
      kernel.Simulate.cycles

let test_fig1 () = three_way (Builder.fig1 ())

let test_plan_reuse () =
  (* one plan, many runs: the domain's arena resets fully, also after
     a wider batch grew it *)
  let m = Builder.fig1 () in
  let plan = Batch.plan m in
  let first = golden plan in
  let spec =
    { Batch.inject = Inject.stuck_sink ~sink:"B1" Word.illegal; join = 0;
      settle = m.Model.cs_max }
  in
  for k = 1 to 5 do
    ignore (Batch.run_with plan (List.init k (fun _ -> spec)));
    check_bool "rerun identical" true (Observation.equal first (golden plan))
  done;
  check_bool "schedule non-empty" true
    ((Batch.base_sched plan).Sched.static_actions > 0)

let test_conflicted_model () =
  (* deliberate double drive: the arena localizes the same ILLEGAL the
     other engines do *)
  let m = Consist.random_model ~conflict:true 7 in
  let obs = golden (Batch.plan m) in
  check_bool "conflict surfaced" true (Observation.has_conflict obs);
  three_way m

let test_compilable () =
  let m = Builder.fig1 () in
  check_bool "clean model compiles" true (Sched.compilable m = Ok ());
  check_bool "stuck tamper compiles" true
    (Sched.compilable ~inject:(Inject.stuck_sink ~sink:"B1" Word.illegal) m
     = Ok ());
  check_bool "oscillator falls back" true
    (Result.is_error
       (Sched.compilable
          ~inject:(Inject.oscillator ~sink:"B1" ~step:1 ~phase:Phase.Ra) m));
  check_bool "wb saboteur compiles" true
    (Sched.compilable
       ~inject:
         (Inject.extra_driver ~sink:"B1" ~step:1 ~phase:Phase.Wb (Word.one))
       m
     = Ok ());
  check_bool "cr saboteur falls back" true
    (Result.is_error
       (Sched.compilable
          ~inject:
            { Inject.none with
              Inject.saboteurs =
                [ { Inject.sab_sink = "B1"; sab_step = 1;
                    sab_phase = Phase.Cr; sab_value = Word.one } ] }
          m));
  check_bool "Degrade falls back" true
    (Result.is_error
       (Sched.compilable
          ~config:{ Simulate.default with on_illegal = Simulate.Degrade }
          m));
  (* every blocker is reported, "; "-joined *)
  match
    Sched.compilable
      ~inject:(Inject.oscillator ~sink:"B1" ~step:1 ~phase:Phase.Ra)
      ~config:{ Simulate.default with on_illegal = Simulate.Halt }
      m
  with
  | Ok () -> Alcotest.fail "two blockers accepted"
  | Error why ->
    check_bool "all blockers listed" true
      (String.length why > 0
       && String.index_opt why ';' <> None)

(* The load-bearing property: 500+ random models, every fourth with a
   deliberate conflict, must agree across all three engines.  Seeds
   are the qcheck-generated integers, so failures print reproducibly. *)
let prop_three_engines_agree =
  QCheck.Test.make ~name:"compiled = interp = kernel on random models"
    ~count:510
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let m = Consist.random_model ~conflict:(seed mod 4 = 0) seed in
      three_way m;
      true)

let prop_cycles_law =
  QCheck.Test.make ~name:"compiled cycle count = expected_cycles"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let m = Consist.random_model seed in
      cycles (Batch.plan m) = Simulate.expected_cycles m)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "compiled"
    [ ( "engine",
        [ Alcotest.test_case "fig1 three-way" `Quick test_fig1;
          Alcotest.test_case "plan reuse" `Quick test_plan_reuse;
          Alcotest.test_case "conflicted model" `Quick
            test_conflicted_model;
          Alcotest.test_case "compilable gate" `Quick test_compilable ] );
      qsuite "differential"
        [ prop_three_engines_agree; prop_cycles_law ] ]
