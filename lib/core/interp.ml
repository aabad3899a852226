type hook = step:int -> phase:Phase.t -> sink:string -> Word.t -> unit

exception Unstable of int * Phase.t * string

let () =
  Printexc.register_printer (function
    | Unstable (step, phase, sink) ->
      Some
        (Printf.sprintf
           "Interp.Unstable(no fixpoint at step %d phase %s on %s)" step
           (Phase.to_string phase) sink)
    | _ -> None)

(* Every resource signal is interned once, in [init]: the run reads
   sinks, registers and units by index, and no phase builds a name or
   looks one up. *)

(* Where a driver's value comes from, resolved when the driver is
   placed in its slot. *)
type src =
  | Const of Word.t
      (* an input port (a pure function of the control step, so known
         when the leg is placed), an op selection, a saboteur value, or
         an endpoint no leg can read (DISC) *)
  | Reg of int  (* a register's (possibly tampered) output view *)
  | Sink of int  (* a bus, as the current phase sees it *)
  | Fu of int  (* a unit's output-port latch *)

(* One driver active during a (step, phase) slot — a transfer leg, an
   op selection or an injected saboteur — and the sink it contributes
   to. *)
type driver = { src : src; dst : int }

type state = {
  model : Model.t;
  sink_name : string array;
  sink_hash : int array;  (* [Hashtbl.hash] of the name: [visit_order] *)
  sink_tamper : Inject.tamper option array;
  regs : Word.t array;  (* declaration order, as [model.registers] *)
  reg_tamper : Inject.tamper option array;  (* the tamper on [R.out] *)
  (* visible (possibly tampered) register-output values; only read for
     registers whose [.out] carries a tamper *)
  reg_vis : Word.t array;
  reg_in : int array;  (* sink of each register's [.in] *)
  fus : Fu_state.t array;  (* declaration order, as [model.fus] *)
  fu_out : Word.t array;
  fu_op : int array;
  fu_in1 : int array;
  fu_in2 : int array;
  out_sink : int array;  (* sink of each output port *)
  slots : driver array array;
      (* per (step, phase) slot: the surviving legs in leg order, the
         saboteurs in plan order, then the op selections *)
  oscillators : (int * string) list;
      (* slot and sink of every injected oscillator, plan order *)
  (* this phase's contributions, each sink's resolved as it arrives
     (resolution is commutative and associative) *)
  pending : Word.t array;
  driven : bool array;
  mutable contributed : int array;  (* driven sinks, first driver first *)
  mutable ncontributed : int;
  (* sinks contributed during the previous phase: their drivers
     release in the current phase, so the sink re-resolves (to DISC
     before tampering) at the next flip *)
  mutable last_contributed : int array;
  mutable nlast : int;
  order : int array;  (* scratch for [visit_order] *)
  (* one-phase-lagged resolved view of all contribution sinks *)
  visible : Word.t array;
  mutable conflicts : (int * Phase.t * string) list;
  reg_trace : Word.t array array;
  mutable out_writes : (string * (int * Word.t)) list;
}

let slot_of ~step phase = ((step - 1) * Phase.count) + Phase.to_int phase

let apply_tamper st sink ~step ~phase v =
  match st.sink_tamper.(sink) with
  | None -> v
  | Some tam -> tam ~step ~phase v

(* [Array.of_list (List.rev l)], seeded with a driver of [l] only when
   the slot has one *)
let array_of_rev = function
  | [] -> [||]
  | d :: _ as l ->
    let n = List.length l in
    let a = Array.make n d in
    let rec fill i = function
      | [] -> ()
      | d :: rest ->
        a.(i) <- d;
        fill (i - 1) rest
    in
    fill (n - 1) l;
    a

let init ~inject (m : Model.t) =
  (* Injection sinks must exist, with the same diagnosis the kernel
     elaboration gives — a campaign classifies the failure identically
     on both paths. *)
  let index = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if not (Hashtbl.mem index n) then
        Hashtbl.add index n (Hashtbl.length index))
    (Model.signal_names m);
  let sink site n =
    match Hashtbl.find_opt index n with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf
           "Interp: model %s declares no resource signal %S (referenced \
            by %s)"
           m.name n site)
  in
  List.iter
    (fun (sb : Inject.saboteur) ->
      ignore (sink "an injected saboteur" sb.Inject.sab_sink))
    inject.Inject.saboteurs;
  List.iter
    (fun (o : Inject.oscillator) ->
      ignore (sink "an injected oscillator" o.Inject.osc_sink))
    inject.Inject.oscillators;
  let nsinks = Hashtbl.length index in
  let sink_name = Array.make nsinks "" in
  Hashtbl.iter (fun n i -> sink_name.(i) <- n) index;
  let sink_tamper =
    if inject.Inject.tampers = [] then Array.make nsinks None
    else Array.map (Inject.tamper_for inject) sink_name
  in
  let regs = Array.of_list m.registers in
  let reg_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (r : Model.register) -> Hashtbl.replace reg_index r.reg_name i)
    regs;
  let reg_tamper =
    Array.map
      (fun (r : Model.register) ->
        sink_tamper.(sink "a register" (r.reg_name ^ ".out")))
      regs
  in
  let reg_vis =
    Array.mapi
      (fun i (r : Model.register) ->
        match reg_tamper.(i) with
        | None -> Word.disc
        | Some tam ->
          (* the kernel's REG process only drives the output when the
             initial value is not DISC, so the tamper only fires then;
             register-output tampers are step/phase-insensitive (stuck
             faults), so the exact point reported here is immaterial *)
          if Word.is_disc r.init then Word.disc
          else tam ~step:1 ~phase:Phase.Ra r.init)
      regs
  in
  let fus = Array.of_list m.fus in
  let fu_index = Hashtbl.create 8 in
  Array.iteri
    (fun i (f : Model.fu) -> Hashtbl.replace fu_index f.fu_name i)
    fus;
  let port suffix =
    Array.map (fun (f : Model.fu) -> sink "a unit" (f.fu_name ^ suffix)) fus
  in
  let fu_op = port ".op" and fu_in1 = port ".in1" and fu_in2 = port ".in2" in
  let reg_in =
    Array.map
      (fun (r : Model.register) -> sink "a register" (r.reg_name ^ ".in"))
      regs
  in
  let source (l : Transfer.leg) =
    match l.src with
    | Transfer.Reg_out r -> Reg (Hashtbl.find reg_index r)
    | Transfer.In_port i ->
      (match
         List.find_opt (fun (x : Model.input) -> x.in_name = i) m.inputs
       with
       | Some inp -> Const (Model.input_value inp l.step)
       | None -> Const Word.disc)
    | Transfer.Bus b -> Sink (sink "a transfer leg" b)
    | Transfer.Fu_out f -> Fu (Hashtbl.find fu_index f)
    | Transfer.Reg_in _ | Transfer.Fu_in _ | Transfer.Out_port _ ->
      Const Word.disc
  in
  let destination = function
    | Transfer.Reg_in r -> reg_in.(Hashtbl.find reg_index r)
    | Transfer.Fu_in (f, 1) -> fu_in1.(Hashtbl.find fu_index f)
    | Transfer.Fu_in (f, 2) -> fu_in2.(Hashtbl.find fu_index f)
    | e -> sink "a transfer leg" (Transfer.endpoint_name e)
  in
  let nslots = m.cs_max * Phase.count in
  let slot_rev = Array.make nslots [] in
  let place k d = slot_rev.(k) <- d :: slot_rev.(k) in
  let legs, selects = Model.all_legs m in
  List.iteri
    (fun idx (l : Transfer.leg) ->
      if not (Inject.drops_leg inject idx) then
        place (slot_of ~step:l.step l.phase)
          { src = source l; dst = destination l.dst })
    legs;
  let in_range step = step >= 1 && step <= m.cs_max in
  List.iter
    (fun (sb : Inject.saboteur) ->
      if in_range sb.Inject.sab_step then
        place
          (slot_of ~step:sb.Inject.sab_step sb.Inject.sab_phase)
          { src = Const sb.Inject.sab_value;
            dst = sink "an injected saboteur" sb.Inject.sab_sink })
    inject.Inject.saboteurs;
  List.iter
    (fun (s : Transfer.op_select) ->
      match Hashtbl.find_opt fu_index s.sel_fu with
      | Some u ->
        let rec find i = function
          | [] -> Word.illegal
          | o :: rest -> if Ops.equal o s.sel_op then i else find (i + 1) rest
        in
        place
          (slot_of ~step:s.sel_step Phase.Rb)
          { src = Const (find 0 fus.(u).ops); dst = fu_op.(u) }
      | None -> ())
    selects;
  (* filled in place: seeding a schedule-length table with a young
     row would force a minor collection *)
  let slots = Array.make nslots [||] in
  Array.iteri (fun k l -> slots.(k) <- array_of_rev l) slot_rev;
  let oscillators =
    List.filter_map
      (fun (o : Inject.oscillator) ->
        if in_range o.Inject.osc_step then
          Some
            ( slot_of ~step:o.Inject.osc_step o.Inject.osc_phase,
              o.Inject.osc_sink )
        else None)
      inject.Inject.oscillators
  in
  { model = m; sink_name; sink_hash = Array.map Hashtbl.hash sink_name;
    sink_tamper;
    regs = Array.map (fun (r : Model.register) -> r.init) regs;
    reg_tamper; reg_vis; reg_in;
    fus =
      Array.map
        (fun (f : Model.fu) ->
          match Inject.latency_for inject f.fu_name with
          | Some latency -> Fu_state.create { f with latency }
          | None -> Fu_state.create f)
        fus;
    fu_out = Array.make (Array.length fus) Word.disc;
    fu_op; fu_in1; fu_in2;
    out_sink = Array.of_list (List.map (sink "an output port") m.outputs);
    slots; oscillators;
    pending = Array.make nsinks Word.disc;
    driven = Array.make nsinks false;
    contributed = Array.make nsinks 0; ncontributed = 0;
    last_contributed = Array.make nsinks 0; nlast = 0;
    order = Array.make nsinks 0;
    visible = Array.make nsinks Word.disc;
    conflicts = [];
    reg_trace = Array.map (fun _ -> Array.make m.cs_max Word.disc) regs;
    out_writes = [] }

let contribute st sink v =
  if not st.driven.(sink) then begin
    st.driven.(sink) <- true;
    st.contributed.(st.ncontributed) <- sink;
    st.ncontributed <- st.ncontributed + 1
  end;
  st.pending.(sink) <- Resolve.combine st.pending.(sink) v

(* The order a flip visits its sinks in, which [on_visible] callers
   ([csrtl trace]) print and which orders same-flip conflicts: that of
   a string-keyed [Hashtbl.create 16] holding the phase's sinks, the
   interpreter's earlier representation.  Such a table visits its
   buckets in ascending order, newest key first within a bucket, and
   doubles its bucket count whenever it holds more than twice as many
   keys.  [visit_order] writes [src.(0 .. n - 1)], given in
   first-contribution order, to [st.order] sorted by bucket —
   stably, after reversing when [newest_first]. *)
let rec buckets n b = if n > 2 * b then buckets n (2 * b) else b

let visit_order st src n ~newest_first =
  let mask = buckets n 16 - 1 in
  let order = st.order in
  for i = 0 to n - 1 do
    let x = if newest_first then src.(n - 1 - i) else src.(i) in
    let key = st.sink_hash.(x) land mask in
    let j = ref i in
    while !j > 0 && st.sink_hash.(order.(!j - 1)) land mask > key do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- x
  done

let newly_illegal st ~step ~phase sink ~was v =
  if Word.is_illegal v && not (Word.is_illegal was) then
    st.conflicts <- (step, phase, st.sink_name.(sink)) :: st.conflicts

(* Turn last phase's contributions into this phase's visible values,
   recording sinks that newly become ILLEGAL.  A sink re-resolves at a
   flip in exactly two cases, mirroring the kernel: its drivers
   contributed during the previous phase (a value resolution), or they
   contributed during the phase before that and released since (a DISC
   resolution).  Each re-resolution passes through the sink's tamper,
   if any; sinks with no transaction keep their previous — possibly
   tampered — value untouched, exactly like an undisturbed kernel
   signal.  A sink re-resolves at most once per flip, so the view is
   updated in place. *)
let flip_phase ?on_visible st ~step ~phase =
  (* the previous phase's sinks, in the order of the table the last
     flip refilled from the contributions it visited: oldest
     contribution first within a bucket *)
  visit_order st st.last_contributed st.nlast ~newest_first:false;
  for i = 0 to st.nlast - 1 do
    let sink = st.order.(i) in
    if not st.driven.(sink) then begin
      let v = apply_tamper st sink ~step ~phase Word.disc in
      newly_illegal st ~step ~phase sink ~was:st.visible.(sink) v;
      st.visible.(sink) <- v
    end
  done;
  visit_order st st.contributed st.ncontributed ~newest_first:true;
  for i = 0 to st.ncontributed - 1 do
    let sink = st.order.(i) in
    let v = apply_tamper st sink ~step ~phase st.pending.(sink) in
    let was = st.visible.(sink) in
    st.visible.(sink) <- v;
    (match on_visible with
     | Some f -> f ~step ~phase ~sink:st.sink_name.(sink) v
     | None -> ());
    newly_illegal st ~step ~phase sink ~was v;
    st.pending.(sink) <- Word.disc;
    st.driven.(sink) <- false
  done;
  let consumed = st.contributed in
  st.contributed <- st.last_contributed;
  st.last_contributed <- consumed;
  st.nlast <- st.ncontributed;
  st.ncontributed <- 0

let reg_out_view st r =
  match st.reg_tamper.(r) with
  | Some _ -> st.reg_vis.(r)
  | None -> st.regs.(r)

let source_value st = function
  | Const v -> v
  | Reg r -> reg_out_view st r
  | Sink b -> st.visible.(b)
  | Fu f -> st.fu_out.(f)

let run_phase st ~step ~(phase : Phase.t) =
  let k = slot_of ~step phase in
  (* The interpreter computes one fixpoint per phase; a metastable
     driver has none, so the run cannot continue — the dedicated
     semantics proves the livelock the kernel merely exhibits. *)
  (match List.assoc_opt k st.oscillators with
   | Some sink -> raise (Unstable (step, phase, sink))
   | None -> ());
  let drivers = st.slots.(k) in
  for i = 0 to Array.length drivers - 1 do
    let d = drivers.(i) in
    contribute st d.dst (source_value st d.src)
  done;
  match phase with
  | Phase.Cm ->
    for u = 0 to Array.length st.fus - 1 do
      st.fu_out.(u) <-
        Fu_state.step st.fus.(u) ~op_index:st.visible.(st.fu_op.(u))
          st.visible.(st.fu_in1.(u)) st.visible.(st.fu_in2.(u))
    done
  | Phase.Cr ->
    for r = 0 to Array.length st.regs - 1 do
      let v = st.visible.(st.reg_in.(r)) in
      if not (Word.is_disc v) then begin
        st.regs.(r) <- v;
        match st.reg_tamper.(r) with
        | Some tam ->
          (* a latch drives the (tampered) output signal: it
             re-resolves at the next visibility point *)
          let vis_step = if step < st.model.cs_max then step + 1 else step in
          st.reg_vis.(r) <- tam ~step:vis_step ~phase:Phase.Ra v
        | None -> ()
      end
    done;
    for i = 0 to Array.length st.out_sink - 1 do
      let o = st.out_sink.(i) in
      let v = st.visible.(o) in
      if not (Word.is_disc v) then
        st.out_writes <- (st.sink_name.(o), (step, v)) :: st.out_writes
    done;
    for r = 0 to Array.length st.regs - 1 do
      st.reg_trace.(r).(step - 1) <- reg_out_view st r
    done
  | Phase.Ra | Phase.Rb | Phase.Wa | Phase.Wb -> ()

let phases = Array.of_list Phase.all

let exec ?on_visible st ~from_step =
  for step = from_step + 1 to st.model.cs_max do
    for p = 0 to Array.length phases - 1 do
      let phase = phases.(p) in
      flip_phase ?on_visible st ~step ~phase;
      run_phase st ~step ~phase
    done
  done

let finish st =
  let m = st.model in
  let outputs =
    List.map
      (fun o ->
        ( o,
          List.rev
            (List.filter_map
               (fun (name, w) -> if name = o then Some w else None)
               st.out_writes) ))
      m.outputs
  in
  { Observation.model_name = m.name; cs_max = m.cs_max;
    regs =
      List.mapi
        (fun i (r : Model.register) -> (r.reg_name, st.reg_trace.(i)))
        m.registers;
    outputs;
    conflicts = List.rev st.conflicts }

let run_with_hook ?on_visible ?inject (m : Model.t) =
  Model.validate_exn m;
  let inject = Option.value ~default:Inject.none inject in
  let st = init ~inject m in
  exec ?on_visible st ~from_step:0;
  finish st

let run ?inject m = run_with_hook ?inject m

(* ---- control-step snapshots ------------------------------------- *)

let capture st ~digest ~step =
  let m = st.model in
  { Snapshot.model_name = m.name;
    digest;
    step;
    regs =
      List.mapi
        (fun i (r : Model.register) -> (r.reg_name, st.regs.(i)))
        m.registers;
    fu_out =
      List.mapi (fun i (f : Model.fu) -> (f.fu_name, st.fu_out.(i))) m.fus;
    fu_slots =
      List.mapi
        (fun i (f : Model.fu) -> (f.fu_name, Fu_state.slots st.fus.(i)))
        m.fus;
    trace =
      List.mapi
        (fun i (r : Model.register) ->
          (r.reg_name, Array.sub st.reg_trace.(i) 0 step))
        m.registers;
    out_writes = List.rev st.out_writes;
    conflicts = Snapshot.sort_conflicts st.conflicts }

let snapshots_at ~steps (m : Model.t) =
  Model.validate_exn m;
  List.iter
    (fun s ->
      if s < 0 || s > m.cs_max then
        invalid_arg
          (Printf.sprintf "Interp.snapshots_at: step %d outside [0, %d]" s
             m.cs_max))
    steps;
  let want = List.sort_uniq compare steps in
  let digest = Snapshot.digest_of_model m in
  let st = init ~inject:Inject.none m in
  let snaps = ref [] in
  if List.mem 0 want then snaps := capture st ~digest ~step:0 :: !snaps;
  for step = 1 to m.cs_max do
    List.iter
      (fun phase ->
        flip_phase st ~step ~phase;
        run_phase st ~step ~phase)
      Phase.all;
    if List.mem step want then snaps := capture st ~digest ~step :: !snaps
  done;
  List.rev !snaps

let snapshot_at ~step m =
  match snapshots_at ~steps:[ step ] m with
  | [ s ] -> s
  | _ -> assert false

let resume ?digest ?inject ~(from : Snapshot.t) (m : Model.t) =
  Model.validate_exn m;
  Snapshot.validate_exn ?digest m from;
  let inject = Option.value ~default:Inject.none inject in
  let st = init ~inject m in
  (* a validated snapshot lists registers and units in declaration
     order, the state's own *)
  List.iteri
    (fun r (_, v) ->
      st.regs.(r) <- v;
      match st.reg_tamper.(r) with
      | Some tam ->
        (* same rule as a latch in the uninterrupted run: the tampered
           output view re-resolves from the current register value *)
        st.reg_vis.(r) <-
          (if Word.is_disc v then Word.disc
           else tam ~step:(from.step + 1) ~phase:Phase.Ra v)
      | None -> ())
    from.regs;
  List.iteri (fun u (_, v) -> st.fu_out.(u) <- v) from.fu_out;
  List.iteri
    (fun u (_, slots) -> Fu_state.restore st.fus.(u) slots)
    from.fu_slots;
  List.iteri
    (fun r (_, a) -> Array.blit a 0 st.reg_trace.(r) 0 (Array.length a))
    from.trace;
  st.out_writes <- List.rev from.out_writes;
  st.conflicts <- List.rev from.conflicts;
  exec st ~from_step:from.step;
  finish st
