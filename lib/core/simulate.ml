open Csrtl_kernel

type illegal_policy = Halt | Record | Degrade

type config = {
  wait_impl : [ `Keyed | `Predicate ];
  resolution_impl : [ `Incremental | `Fold ];
  on_illegal : illegal_policy;
  watchdog : bool;
}

let default =
  { wait_impl = `Keyed; resolution_impl = `Incremental;
    on_illegal = Record; watchdog = false }

type outcome =
  | Finished
  | Halted of int * Phase.t * string
  | Watchdog_tripped of int
  | Kernel_overflow of Types.delta_overflow

type result = {
  obs : Observation.t;
  cycles : int;
  stats : Types.stats;
  elaborated : Elaborate.t;
  outcome : outcome;
}

let src = Logs.Src.create "csrtl.sim" ~doc:"clock-free model simulation"

module Log = (val Logs.src_log src : Logs.LOG)

let expected_cycles_from (m : Model.t) s0 =
  (* A [wb] leg in the final step releases its driver during the last
     [cr] cycle, and a latching register schedules its output update
     there too: either adds one trailing cycle. *)
  let wb_leg_in_last_step =
    List.exists
      (fun (t : Transfer.t) ->
        t.write_step = Some m.cs_max && t.dst <> None)
      m.transfers
  in
  (Phase.count * (m.cs_max - s0)) + if wb_leg_in_last_step then 1 else 0

let expected_cycles m = expected_cycles_from m 0

(* An injection never changes how many deltas a run takes except at
   the trailing edge: tampers and latency overrides rewrite values,
   not transactions; a dropped leg removes a contribute/release pair
   that matured within its own step; a saboteur adds one that does.
   The only transactions that can mature after the final [cr] are the
   releases of drivers contributing during the last [wb] — a
   legitimate final-step [wb] leg or a saboteur scheduled there — so
   the faulted count is the law for the segment plus one exactly when
   some such driver survives the injection.  The batch executor emits
   this prediction as the run's kernel cycle count, and the
   differential suite ([test/test_batch.ml]) pins it against the
   event kernel. *)
let expected_cycles_with (lf : Legs.t) ~(inject : Inject.t) s0 =
  let cs_max = lf.Legs.model.Model.cs_max in
  let surviving_wb_leg =
    Array.exists (fun i -> not (Inject.drops_leg inject i)) lf.Legs.final_wb
  in
  let wb_saboteur =
    List.exists
      (fun (sb : Inject.saboteur) ->
        sb.Inject.sab_step = cs_max
        && Phase.equal sb.Inject.sab_phase Phase.Wb)
      inject.Inject.saboteurs
  in
  (Phase.count * (cs_max - s0))
  + if surviving_wb_leg || wb_saboteur then 1 else 0

let expected_cycles_injected ~inject m s0 =
  expected_cycles_with (Legs.of_model m) ~inject s0

let watchdog_slack = 16

let run_internal ?vcd ?(trace = false) ?inject ?(config = default) ?digest
    ?from ?capture_at (m : Model.t) =
  let { wait_impl; resolution_impl; on_illegal; watchdog } = config in
  let e =
    Elaborate.build ~wait_impl ~resolution_impl ?inject
      ~degrade_illegal:(on_illegal = Degrade) ?digest ?from m
  in
  let s0 = match from with Some s -> s.Snapshot.step | None -> 0 in
  let k = e.kernel in
  let cs = e.ctrl.cs and ph = e.ctrl.ph in
  (* ILLEGAL localization on resolved sinks. *)
  let resolved_sinks = Hashtbl.create 32 in
  let remember name =
    match e.Elaborate.find_signal name with
    | Some s -> Hashtbl.replace resolved_sinks (Signal.id s) name
    | None ->
      (* every monitored name comes from the validated model, so a
         miss is an elaboration bug — fail loudly, never silently
         drop a conflict sink *)
      invalid_arg
        (Printf.sprintf
           "Simulate: elaboration of %s produced no signal %S to monitor"
           m.name name)
  in
  List.iter remember m.buses;
  List.iter remember m.outputs;
  List.iter
    (fun (r : Model.register) -> remember (r.reg_name ^ ".in"))
    m.registers;
  List.iter
    (fun (f : Model.fu) ->
      remember (f.fu_name ^ ".in1");
      remember (f.fu_name ^ ".in2");
      remember (f.fu_name ^ ".op"))
    m.fus;
  let conflicts =
    ref (match from with Some s -> List.rev s.Snapshot.conflicts | None -> [])
  in
  Scheduler.on_event k (fun s ->
      if Word.is_illegal (Signal.value s) then
        match Hashtbl.find_opt resolved_sinks (Signal.id s) with
        | Some name ->
          let step = Signal.value cs in
          let phase = Phase.of_int_exn (Signal.value ph) in
          conflicts := (step, phase, name) :: !conflicts;
          if on_illegal = Halt then Scheduler.request_stop k
        | None -> ());
  if trace then
    Scheduler.on_event k (fun s ->
        Log.debug (fun f ->
            f "[cycle %d cs=%d ph=%s] %a" (Scheduler.delta_count k)
              (Signal.value cs)
              (Controller.phase_printer (Signal.value ph))
              Signal.pp s));
  (match vcd with
   | Some buf -> ignore (Vcd.attach k ~out:buf [])
   | None -> ());
  (* Register snapshots: at each [ra] the previous step's latches have
     just matured. *)
  let reg_signals = Elaborate.register_outputs e in
  let snapshots = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      let arr = Array.make m.cs_max Word.disc in
      (match from with
       | Some s ->
         let prefix = List.assoc name s.Snapshot.trace in
         Array.blit prefix 0 arr 0 (Array.length prefix)
       | None -> ());
      Hashtbl.replace snapshots name arr)
    reg_signals;
  let snapshot step =
    if step >= 1 && step <= m.cs_max then
      List.iter
        (fun (name, s) ->
          (Hashtbl.find snapshots name).(step - 1) <- Signal.value s)
        reg_signals
  in
  ignore
    (Scheduler.add_process k ~name:"$monitor_regs" (fun () ->
         while true do
           Process.wait_keyed ph (Phase.to_int Phase.Ra);
           snapshot (Signal.value cs - 1)
         done));
  (* Output-port sampling at [cr]. *)
  let out_ports = Elaborate.output_ports e in
  let out_writes =
    ref (match from with Some s -> List.rev s.Snapshot.out_writes | None -> [])
  in
  if out_ports <> [] then
    ignore
      (Scheduler.add_process k ~name:"$monitor_outs" (fun () ->
           while true do
             Process.wait_keyed ph (Phase.to_int Phase.Cr);
             let step = Signal.value cs in
             List.iter
               (fun (name, s) ->
                 let v = Signal.value s in
                 if
                   (not (Word.is_disc v))
                   && not (on_illegal = Degrade && Word.is_illegal v)
                 then out_writes := (name, (step, v)) :: !out_writes)
               out_ports
           done));
  (* Boundary capture: at the [ra] cycle of step [s + 1] every sink
     has been released (SEMANTICS §10), so the machine state is the
     register file plus the unit pipelines and output latches.  The
     trace cell of step [s] is read from the matured register signals
     rather than the monitor table, so capture does not depend on
     process ordering against [$monitor_regs]. *)
  let captured = ref None in
  let capture step =
    { Snapshot.model_name = m.name;
      digest = Snapshot.digest_of_model m;
      step;
      regs = List.map (fun (n, s) -> (n, Signal.value s)) reg_signals;
      fu_out =
        List.map
          (fun (f : Model.fu) ->
            match e.Elaborate.find_signal (f.fu_name ^ ".out") with
            | Some s -> (f.fu_name, Signal.value s)
            | None -> (f.fu_name, Word.disc))
          m.fus;
      fu_slots =
        List.map (fun (n, st) -> (n, Fu_state.slots st)) e.Elaborate.fu_states;
      trace =
        List.map
          (fun (n, s) ->
            let a = Array.sub (Hashtbl.find snapshots n) 0 step in
            if step > 0 then a.(step - 1) <- Signal.value s;
            (n, a))
          reg_signals;
      out_writes = List.rev !out_writes;
      conflicts = Snapshot.sort_conflicts !conflicts }
  in
  (match capture_at with
   | Some step when step < m.cs_max ->
     ignore
       (Scheduler.add_process k ~name:"$capture" (fun () ->
            Process.wait_keyed cs (step + 1);
            captured := Some (capture step)))
   | Some _ | None -> ());
  let run_result =
    if watchdog then
      (* Control-step watchdog: the delta-cycle law bounds a healthy
         run, so anything past the law plus slack is a hang. *)
      Scheduler.run ~max_cycles:(expected_cycles_from m s0 + watchdog_slack) k
    else Scheduler.run k
  in
  (match capture_at with
   | Some step when step = m.cs_max && !captured = None ->
     (* the final boundary is the quiescent post-run state *)
     captured := Some (capture step)
   | Some _ | None -> ());
  let outcome =
    match run_result with
    | Scheduler.Completed | Scheduler.Stopped Scheduler.Stop_raised
    | Scheduler.Stopped Scheduler.Max_time ->
      Finished
    | Scheduler.Stopped Scheduler.Stop_requested ->
      (match List.rev !conflicts with
       | (s, p, n) :: _ -> Halted (s, p, n)
       | [] -> Finished)
    | Scheduler.Stopped Scheduler.Max_cycles ->
      Watchdog_tripped (Scheduler.delta_count k)
    | Scheduler.Overflow ov -> Kernel_overflow ov
  in
  (* The final step's register updates mature in the very last cycle;
     sample them from the quiescent signal state. *)
  snapshot m.cs_max;
  let obs =
    { Observation.model_name = m.name; cs_max = m.cs_max;
      regs =
        List.map (fun (name, _) -> (name, Hashtbl.find snapshots name))
          reg_signals;
      outputs =
        List.map
          (fun (o, _) ->
            ( o,
              List.rev
                (List.filter_map
                   (fun (name, w) -> if name = o then Some w else None)
                   !out_writes) ))
          out_ports;
      conflicts = List.rev !conflicts }
  in
  ( { obs; cycles = Scheduler.delta_count k; stats = Scheduler.stats k;
      elaborated = e; outcome },
    !captured )

let run_cfg ?vcd ?trace ?inject ?config m =
  fst (run_internal ?vcd ?trace ?inject ?config m)

let snapshot_at ?(config = default) ~step (m : Model.t) =
  if step < 0 || step > m.cs_max then
    invalid_arg
      (Printf.sprintf "Simulate.snapshot_at: step %d outside [0, %d]" step
         m.cs_max);
  match run_internal ~config ~capture_at:step m with
  | _, Some s -> s
  | _, None ->
    (* only reachable when the run aborted before the boundary, which
       an uninjected model cannot do *)
    invalid_arg "Simulate.snapshot_at: run ended before the boundary"

let resume ?vcd ?trace ?inject ?config ?digest ~from m =
  fst (run_internal ?vcd ?trace ?inject ?config ?digest ~from m)

let run ?vcd ?trace ?wait_impl ?resolution_impl ?inject ?on_illegal
    ?watchdog m =
  let pick v dflt = Option.value ~default:dflt v in
  let config =
    { wait_impl = pick wait_impl default.wait_impl;
      resolution_impl = pick resolution_impl default.resolution_impl;
      on_illegal = pick on_illegal default.on_illegal;
      watchdog = pick watchdog default.watchdog }
  in
  run_cfg ?vcd ?trace ?inject ~config m

let pp_outcome ppf = function
  | Finished -> Format.pp_print_string ppf "finished"
  | Halted (s, p, n) ->
    Format.fprintf ppf "halted on ILLEGAL at step %d phase %s on %s" s
      (Phase.to_string p) n
  | Watchdog_tripped cycles ->
    Format.fprintf ppf "watchdog tripped after %d cycles" cycles
  | Kernel_overflow ov -> Types.pp_delta_overflow ppf ov
