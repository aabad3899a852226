(* Control-step checkpointing: snapshots captured at any boundary, on
   any engine, serialize byte-identically and resume to exactly the
   uninterrupted observation.  This differential property — the
   quiescence argument of SEMANTICS §10 made executable — is what the
   crash-resumable fault campaigns stand on. *)

open Csrtl_core
module Consist = Csrtl_verify.Consist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 () = Builder.fig1 ()

(* Engines discover simultaneous conflicts in different orders;
   [Observation.equal] normalizes, so resumed-vs-full comparison goes
   through it. *)
let obs_agree name full got =
  if not (Observation.equal full got) then
    Alcotest.failf "%s diverged from the uninterrupted run:@ %s" name
      (String.concat "; " (Observation.diff full got))

let arena_snapshot_at plan ~step =
  List.hd (Batch.snapshots_at plan ~steps:[ step ])

(* The full differential: at every boundary the three engines produce
   byte-identical serializations, and every engine resumes every
   engine's snapshot to the uninterrupted observation. *)
let check_all_boundaries m =
  let full = Interp.run m in
  let plan = Batch.plan m in
  for step = 0 to m.Model.cs_max do
    let si = Interp.snapshot_at ~step m in
    let sk = Simulate.snapshot_at ~step m in
    let sc = arena_snapshot_at plan ~step in
    let text = Snapshot.to_string si in
    Alcotest.(check string) "kernel snapshot bytes" text
      (Snapshot.to_string sk);
    Alcotest.(check string) "arena snapshot bytes" text
      (Snapshot.to_string sc);
    (* serialization round trip *)
    (match Snapshot.of_string text with
     | Ok s -> check_bool "round trip equal" true (Snapshot.equal s si)
     | Error e -> Alcotest.failf "of_string failed at step %d: %s" step e);
    obs_agree "interp resume" full (Interp.resume ~from:sk m);
    obs_agree "arena resume" full (Batch.resume plan ~from:si);
    let r = Simulate.resume ~from:sc m in
    obs_agree "kernel resume" full r.Simulate.obs;
    (* the delta-cycle law holds for the resumed segment (the full
       boundary replays the one trailing release cycle) *)
    if step < m.Model.cs_max then
      check_int
        (Printf.sprintf "segment law from boundary %d" step)
        (Simulate.expected_cycles_from m step)
        r.Simulate.cycles
  done

let test_fig1_boundaries () = check_all_boundaries (fig1 ())

let test_conflicted_model_boundaries () =
  (* conflicts recorded before the boundary must survive the round
     trip into the resumed observation *)
  let m = Consist.random_model ~conflict:true 7 in
  check_bool "model does conflict" true
    (Observation.has_conflict (Interp.run m));
  check_all_boundaries m

let test_validate_rejects () =
  let m = fig1 () in
  let other = Consist.random_model 3 in
  let s = Interp.snapshot_at ~step:2 m in
  check_bool "fits its own model" true (Snapshot.validate m s = Ok ());
  check_bool "rejected against another model" true
    (Result.is_error (Snapshot.validate other s));
  check_bool "tampered digest rejected" true
    (Result.is_error
       (Snapshot.validate m { s with Snapshot.digest = String.make 32 '0' }));
  check_bool "step out of range rejected" true
    (Result.is_error
       (Snapshot.validate m { s with Snapshot.step = m.Model.cs_max + 3 }));
  match Snapshot.of_string "csrtl-snapshot 99\nend\n" with
  | Ok _ -> Alcotest.fail "alien version accepted"
  | Error _ -> ()

let test_snapshots_at_single_run () =
  let m = fig1 () in
  let steps = [ 3; 1; 3; m.Model.cs_max; 0 ] in
  let snaps = Interp.snapshots_at ~steps m in
  check_int "deduplicated ascending" 4 (List.length snaps);
  List.iter2
    (fun (s : Snapshot.t) expect ->
      check_int "boundary" expect s.Snapshot.step;
      Alcotest.(check string) "same as a dedicated capture"
        (Snapshot.to_string (Interp.snapshot_at ~step:expect m))
        (Snapshot.to_string s))
    snaps
    [ 0; 1; 3; m.Model.cs_max ]

(* The arena captures every boundary of one run as it passes it; each
   capture is byte-identical to the interpreter's, and resuming the
   arena from each — on the same domain arena the captures used —
   reproduces the uninterrupted run. *)
let test_arena_every_boundary () =
  List.iter
    (fun m ->
      let plan = Batch.plan m in
      let full = Interp.run m in
      let all = List.init (m.Model.cs_max + 1) Fun.id in
      let snaps = Batch.snapshots_at plan ~steps:(List.rev all) in
      check_int "one capture per boundary" (m.Model.cs_max + 1)
        (List.length snaps);
      List.iter2
        (fun step (s : Snapshot.t) ->
          check_int "ascending" step s.Snapshot.step;
          Alcotest.(check string)
            (Printf.sprintf "%s boundary %d bytes" m.Model.name step)
            (Snapshot.to_string (Interp.snapshot_at ~step m))
            (Snapshot.to_string s);
          obs_agree
            (Printf.sprintf "%s arena resume from %d" m.Model.name step)
            full (Batch.resume plan ~from:s))
        all snaps;
      match Batch.snapshots_at plan ~steps:[ m.Model.cs_max + 1 ] with
      | _ -> Alcotest.fail "a boundary past cs_max was captured"
      | exception Invalid_argument _ -> ())
    [ fig1 (); Consist.random_model ~conflict:true 7;
      Rtm.of_file (Filename.concat "corpus" "io.rtm") ]

(* A snapshot that names an undeclared output port, or writes a port
   twice in one step, must fail validation: every engine sizes a
   port's write log by cs_max. *)
let test_validate_out_writes () =
  let m = Rtm.of_file (Filename.concat "corpus" "io.rtm") in
  let s = Interp.snapshot_at ~step:m.Model.cs_max m in
  check_bool "engine snapshot validates" true (Snapshot.validate m s = Ok ());
  (match s.Snapshot.out_writes with
   | [] -> Alcotest.fail "io.rtm writes no output"
   | ((port, (w, v)) as first) :: _ ->
     check_bool "undeclared port rejected" true
       (Result.is_error
          (Snapshot.validate m
             { s with
               Snapshot.out_writes =
                 ("nope", (w, v)) :: s.Snapshot.out_writes }));
     check_bool "repeated write rejected" true
       (Result.is_error
          (Snapshot.validate m
             { s with
               Snapshot.out_writes = first :: s.Snapshot.out_writes }));
     check_bool "out-of-order write rejected" true
       (Result.is_error
          (Snapshot.validate m
             { s with
               Snapshot.out_writes =
                 s.Snapshot.out_writes @ [ (port, (w - 1, v)) ] })));
  let stray =
    { s with
      Snapshot.out_writes = ("nope", (1, 0)) :: s.Snapshot.out_writes }
  in
  match Batch.resume (Batch.plan m) ~from:stray with
  | _ -> Alcotest.fail "arena resumed an invalid snapshot"
  | exception Invalid_argument _ -> ()

let test_save_load () =
  let m = fig1 () in
  let s = Simulate.snapshot_at ~step:4 m in
  let path = Filename.temp_file "csrtl_snap" ".txt" in
  Snapshot.save path s;
  (match Snapshot.load path with
   | Ok s' -> check_bool "load = save" true (Snapshot.equal s s')
   | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

(* The qcheck lockdown: random models, every third with a deliberate
   conflict, resumed from a random boundary on all three engines. *)
let prop_resume_equals_uninterrupted =
  QCheck.Test.make
    ~name:"restore(snapshot); run == uninterrupted run (all engines)"
    ~count:120
    QCheck.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, boundary_seed) ->
      let m = Consist.random_model ~conflict:(seed mod 3 = 0) seed in
      let step = boundary_seed mod (m.Model.cs_max + 1) in
      let full = Interp.run m in
      let plan = Batch.plan m in
      let si = Interp.snapshot_at ~step m in
      let sk = Simulate.snapshot_at ~step m in
      let sc = arena_snapshot_at plan ~step in
      let text = Snapshot.to_string si in
      if Snapshot.to_string sk <> text || Snapshot.to_string sc <> text then
        QCheck.Test.fail_reportf
          "engines disagree on snapshot bytes at step %d of seed %d" step
          seed;
      let ok name got =
        if not (Observation.equal full got) then
          QCheck.Test.fail_reportf
            "%s resume diverged at step %d of seed %d:@ %s" name step seed
            (String.concat "; " (Observation.diff full got))
      in
      ok "interp" (Interp.resume ~from:sc m);
      ok "arena" (Batch.resume plan ~from:sk);
      ok "kernel" (Simulate.resume ~from:si m).Simulate.obs;
      true)

let prop_serialization_round_trip =
  QCheck.Test.make ~name:"of_string (to_string s) = Ok s" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let m = Consist.random_model ~conflict:(seed mod 2 = 0) seed in
      let step = seed mod (m.Model.cs_max + 1) in
      let s = Interp.snapshot_at ~step m in
      match Snapshot.of_string (Snapshot.to_string s) with
      | Ok s' -> Snapshot.equal s s'
      | Error _ -> false)

let () =
  Alcotest.run "snapshot"
    [ ( "boundaries",
        [ Alcotest.test_case "fig1 all boundaries, all engines" `Quick
            test_fig1_boundaries;
          Alcotest.test_case "conflicted model boundaries" `Quick
            test_conflicted_model_boundaries;
          Alcotest.test_case "snapshots_at: one run, many captures" `Quick
            test_snapshots_at_single_run;
          Alcotest.test_case "arena captures and resumes every boundary"
            `Quick test_arena_every_boundary ] );
      ( "serialization",
        [ Alcotest.test_case "validate rejects misuse" `Quick
            test_validate_rejects;
          Alcotest.test_case "save/load round trip" `Quick test_save_load;
          Alcotest.test_case "validate checks output writes" `Quick
            test_validate_out_writes ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest ~long:false
            prop_resume_equals_uninterrupted;
          QCheck_alcotest.to_alcotest ~long:false
            prop_serialization_round_trip ] ) ]
