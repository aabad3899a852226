open Csrtl_kernel

type t = {
  kernel : Scheduler.t;
  model : Model.t;
  ctrl : Controller.t;
  signal_of : Transfer.endpoint -> Signal.t;
  find_signal : string -> Signal.t option;
  fu_states : (string * Fu_state.t) list;
}

let word_printer = Word.to_string

let op_printer (ops : Ops.t list) v =
  if Word.is_disc v then "DISC"
  else if Word.is_illegal v then "ILLEGAL"
  else
    match List.nth_opt ops v with
    | Some op -> Ops.to_string op
    | None -> Printf.sprintf "?op:%d" v

let build ?kernel ?(wait_impl = `Keyed) ?(resolution_impl = `Incremental)
    ?(inject = Inject.none) ?(degrade_illegal = false) ?digest ?from
    (m : Model.t) =
  Model.validate_exn m;
  (match from with Some s -> Snapshot.validate_exn ?digest m s | None -> ());
  (* Resuming from a control-step boundary: the controller starts at
     the snapshot step, restored state becomes each process's initial
     assignment, and every statically-scheduled process whose slot lies
     at or before the boundary is simply not elaborated. *)
  let s0 = match from with Some s -> s.Snapshot.step | None -> 0 in
  let resolution =
    match resolution_impl with
    | `Incremental -> Resolve.kernel_resolution
    | `Fold -> Csrtl_kernel.Types.Fold Resolve.resolve
  in
  let k = match kernel with Some k -> k | None -> Scheduler.create () in
  let ctrl = Controller.add ~init_step:s0 k ~cs_max:m.cs_max in
  let cs = ctrl.cs and ph = ctrl.ph in
  (* An injected tamper rewrites the resolution output at the moment
     the value becomes visible; the control signals carry the lowest
     sids, so they are already resolved (see Scheduler.fire_events)
     and [cs]/[ph] read the visibility point. *)
  let tampered_resolution (tam : Inject.tamper) base =
    let apply v =
      tam ~step:(Signal.value cs)
        ~phase:(Phase.of_int_exn (Signal.value ph))
        v
    in
    match base with
    | Csrtl_kernel.Types.Fold f ->
      Csrtl_kernel.Types.Fold (fun arr -> apply (f arr))
    | Csrtl_kernel.Types.Incremental mk ->
      Csrtl_kernel.Types.Incremental
        (fun () ->
          let st = mk () in
          { st with
            Csrtl_kernel.Types.incr_read =
              (fun () -> apply (st.Csrtl_kernel.Types.incr_read ())) })
  in
  let table : (string, Signal.t) Hashtbl.t = Hashtbl.create 64 in
  let declare ?resolution ?printer name init =
    let s = Scheduler.signal k ?resolution ?printer ~name ~init () in
    Hashtbl.replace table name s;
    s
  in
  let resolved ?printer name =
    let resolution =
      match Inject.tamper_for inject name with
      | None -> resolution
      | Some tam -> tampered_resolution tam resolution
    in
    declare ~resolution
      ~printer:(Option.value ~default:word_printer printer) name Word.disc
  in
  let plain ?printer name init =
    match Inject.tamper_for inject name with
    | None ->
      declare ~printer:(Option.value ~default:word_printer printer) name init
    | Some tam ->
      (* A tampered single-driver signal (a register output) becomes a
         one-driver resolved signal so the tamper sits at the same
         place as on a bus: the resolution output. *)
      let res =
        tampered_resolution tam
          (Csrtl_kernel.Types.Fold
             (fun arr -> if Array.length arr = 0 then init else arr.(0)))
      in
      declare ~resolution:res
        ~printer:(Option.value ~default:word_printer printer) name init
  in
  (* Signals. *)
  List.iter (fun b -> ignore (resolved b)) m.buses;
  List.iter
    (fun (r : Model.register) ->
      ignore (resolved (r.reg_name ^ ".in"));
      ignore (plain (r.reg_name ^ ".out") Word.disc))
    m.registers;
  List.iter
    (fun (f : Model.fu) ->
      ignore (resolved (f.fu_name ^ ".in1"));
      ignore (resolved (f.fu_name ^ ".in2"));
      ignore (plain (f.fu_name ^ ".out") Word.disc);
      ignore (resolved ~printer:(op_printer f.ops) (f.fu_name ^ ".op")))
    m.fus;
  List.iter
    (fun (i : Model.input) -> ignore (plain i.in_name Word.disc))
    m.inputs;
  List.iter (fun o -> ignore (resolved o)) m.outputs;
  let sig_named ?(site = "elaboration") n =
    match Hashtbl.find_opt table n with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf
           "Elaborate: model %s declares no resource signal %S \
            (referenced by %s)"
           m.name n site)
  in
  let signal_of ep =
    sig_named ~site:"a signal_of lookup" (Transfer.endpoint_name ep)
  in
  (* Wait for a phase (any step), with either implementation. *)
  let wait_phase phase =
    match wait_impl with
    | `Keyed -> Process.wait_keyed ph (Phase.to_int phase)
    | `Predicate ->
      Process.wait_until [ ph ] (fun () ->
          Signal.value ph = Phase.to_int phase)
  in
  (* First activation of a transfer at (step, phase): in keyed mode,
     wake on the step-counter event (the [ra] cycle of that step --
     the bucket holds only that step's transfers), then on the phase
     value if the phase is later in the step.  Waking costs O(1) per
     leg instead of a scan of every pending leg per cycle. *)
  let wait_first step phase =
    match wait_impl with
    | `Keyed ->
      Process.wait_keyed cs step;
      if phase <> Phase.Ra then Process.wait_keyed ph (Phase.to_int phase)
    | `Predicate ->
      Process.wait_until [ cs; ph ] (fun () ->
          Signal.value cs = step && Signal.value ph = Phase.to_int phase)
  in
  (* Second activation (the DISC release): same step, one phase
     later; legs exist only for phases [ra..wb], so the successor is
     never [ra] and a phase-keyed wait suffices. *)
  let wait_release step phase =
    match wait_impl with
    | `Keyed -> Process.wait_keyed ph (Phase.to_int phase)
    | `Predicate ->
      Process.wait_until [ cs; ph ] (fun () ->
          Signal.value cs = step && Signal.value ph = Phase.to_int phase)
  in
  (* Input drivers. *)
  List.iter
    (fun (i : Model.input) ->
      let s = sig_named i.in_name in
      match i.drive with
      | Model.Const v ->
        ignore
          (Scheduler.add_process k ~name:("IN_" ^ i.in_name) (fun () ->
               Scheduler.assign k s v))
      | Model.Schedule _ ->
        ignore
          (Scheduler.add_process k ~name:("IN_" ^ i.in_name) (fun () ->
               Scheduler.assign k s (Model.input_value i (s0 + 1));
               while true do
                 wait_phase Phase.Cr;
                 let next = Signal.value cs + 1 in
                 if next <= m.cs_max then
                   Scheduler.assign k s (Model.input_value i next)
               done)))
    m.inputs;
  (* Register processes (paper §2.5). *)
  List.iter
    (fun (r : Model.register) ->
      let r_in = sig_named (r.reg_name ^ ".in") in
      let r_out = sig_named (r.reg_name ^ ".out") in
      let init_v =
        match from with
        | None -> r.init
        | Some snap -> List.assoc r.reg_name snap.Snapshot.regs
      in
      ignore
        (Scheduler.add_process k ~name:("REG_" ^ r.reg_name) (fun () ->
             if not (Word.is_disc init_v) then Scheduler.assign k r_out init_v;
             while true do
               wait_phase Phase.Cr;
               let v = Signal.value r_in in
               (* fail-soft policy: under [degrade_illegal] a conflict
                  is recorded but never latched, so the register keeps
                  its last good value *)
               if
                 (not (Word.is_disc v))
                 && not (degrade_illegal && Word.is_illegal v)
               then Scheduler.assign k r_out v
             done)))
    m.registers;
  (* Module processes (paper §2.6). *)
  let fu_states =
    List.map
      (fun (f : Model.fu) ->
        let in1 = sig_named (f.fu_name ^ ".in1") in
        let in2 = sig_named (f.fu_name ^ ".in2") in
        let out = sig_named (f.fu_name ^ ".out") in
        let op = sig_named (f.fu_name ^ ".op") in
        let st =
          Fu_state.create
            (match Inject.latency_for inject f.fu_name with
             | Some latency -> { f with latency }
             | None -> f)
        in
        let out0 =
          match from with
          | None -> Word.disc
          | Some snap ->
            Fu_state.restore st (List.assoc f.fu_name snap.Snapshot.fu_slots);
            List.assoc f.fu_name snap.Snapshot.fu_out
        in
        ignore
          (Scheduler.add_process k ~name:("FU_" ^ f.fu_name) (fun () ->
               if not (Word.is_disc out0) then Scheduler.assign k out out0;
               while true do
                 wait_phase Phase.Cm;
                 let v =
                   Fu_state.step st ~op_index:(Signal.value op)
                     (Signal.value in1) (Signal.value in2)
                 in
                 Scheduler.assign k out v
               done));
        (f.fu_name, st))
      m.fus
  in
  (* Transfer processes, one per leg (paper §2.4), plus op selection. *)
  let legs, selects = Model.all_legs m in
  List.iteri
    (fun idx (l : Transfer.leg) ->
      if l.step > s0 && not (Inject.drops_leg inject idx) then begin
        let site = Format.asprintf "TRANS leg %a" Transfer.pp_leg l in
        let src = sig_named ~site (Transfer.endpoint_name l.src) in
        let dst = sig_named ~site (Transfer.endpoint_name l.dst) in
        let name = "TRANS" ^ string_of_int idx in
        ignore
          (Scheduler.add_process k ~name (fun () ->
               wait_first l.step l.phase;
               Scheduler.assign k dst (Signal.value src);
               wait_release l.step (Phase.succ l.phase);
               Scheduler.assign k dst Word.disc))
      end)
    legs;
  List.iteri
    (fun idx (s : Transfer.op_select) ->
      match Model.find_fu m s.sel_fu with
      | _ when s.sel_step <= s0 -> ()
      | None -> ()
      | Some f ->
        let op_sig = sig_named (f.fu_name ^ ".op") in
        let index =
          let rec find i = function
            | [] -> Word.illegal
            | op :: rest -> if Ops.equal op s.sel_op then i else find (i + 1) rest
          in
          find 0 f.ops
        in
        let name = "OPSEL" ^ string_of_int idx in
        ignore
          (Scheduler.add_process k ~name (fun () ->
               wait_first s.sel_step Phase.Rb;
               Scheduler.assign k op_sig index;
               wait_release s.sel_step Phase.Cm;
               Scheduler.assign k op_sig Word.disc)))
    selects;
  (* Saboteur processes: spurious extra drivers, shaped exactly like a
     TRANS leg (drive during the phase, release one phase later) so an
     injected driver obeys the same visibility discipline. *)
  List.iteri
    (fun idx (sb : Inject.saboteur) ->
      let s = sig_named ~site:"an injected saboteur" sb.sab_sink in
      if sb.Inject.sab_step > s0 then begin
        let name = "SAB" ^ string_of_int idx in
        ignore
          (Scheduler.add_process k ~name (fun () ->
               wait_first sb.sab_step sb.sab_phase;
               Scheduler.assign k s sb.sab_value;
               wait_release sb.sab_step (Phase.succ sb.sab_phase);
               Scheduler.assign k s Word.disc))
      end)
    inject.Inject.saboteurs;
  (* Oscillator processes: a metastable net.  From the trigger slot on,
     the process re-triggers itself through a private toggle signal
     every delta cycle, so the run never reaches quiescence — the
     bounded realization of "this driver set has no fixpoint". *)
  List.iteri
    (fun idx (o : Inject.oscillator) ->
      let s = sig_named ~site:"an injected oscillator" o.Inject.osc_sink in
      if o.Inject.osc_step > s0 then begin
        let name = "OSC" ^ string_of_int idx in
        let tick = Scheduler.signal k ~name:(name ^ ".tick") ~init:0 () in
        ignore
          (Scheduler.add_process k ~name (fun () ->
               wait_first o.Inject.osc_step o.Inject.osc_phase;
               let v = ref 0 in
               while true do
                 Scheduler.assign k s !v;
                 v := 1 - !v;
                 Scheduler.assign k tick (1 - Signal.value tick);
                 Process.wait_on [ tick ]
               done))
      end)
    inject.Inject.oscillators;
  { kernel = k; model = m; ctrl; signal_of;
    find_signal = Hashtbl.find_opt table; fu_states }

let lookup t names =
  List.filter_map
    (fun n -> Option.map (fun s -> (n, s)) (t.find_signal n))
    names

let bus_signals t = lookup t t.model.buses

let register_outputs t =
  List.map
    (fun (r : Model.register) ->
      (r.reg_name, t.signal_of (Transfer.Reg_out r.reg_name)))
    t.model.registers

let output_ports t =
  List.map (fun o -> (o, t.signal_of (Transfer.Out_port o))) t.model.outputs
