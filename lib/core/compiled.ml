(* The phase-compiled executor.  Compilation ({!Sched}) lowers the
   model's legs, op-selections and injection overlay onto integer sink
   ids and flattens them into one action array per (control step,
   phase) slot; execution walks the 6 * cs_max slots replaying
   {!Interp}'s one-phase-lagged visibility discipline over
   preallocated arrays.  The only allocations after [of_model] are
   conflict report entries and the final observation. *)

type stats = {
  static_actions : int;
  contributions : int;
  resolutions : int;
  fu_evals : int;
  latches : int;
}

type t = {
  sched : Sched.t;
  cycles : int;
  fu_states : Fu_state.t array;
  (* ---- per-run state, preallocated and reset by [run] ---- *)
  visible : Word.t array;
  regs : Word.t array;
  reg_vis : Word.t array;
      (* the latched output view the datapath reads — equals [regs]
         except under a register-output tamper ({!Sched.reg_tamper}) *)
  fu_out : Word.t array;
  (* pending contributions of the current phase: [acc] accumulates via
     the resolution monoid, [pend_ids]/[pend_n] list the touched sinks,
     [in_pending] dedups.  At each flip the pending set becomes the
     live set (whose drivers release one phase later) and the arrays
     swap — a double buffer, no allocation. *)
  acc : Word.t array;
  in_pending : bool array;
  mutable pend_ids : int array;
  mutable pend_n : int;
  mutable live_ids : int array;
  mutable live_n : int;
  traces : Word.t array array;  (* register index -> per-step values *)
  out_steps : int array array;  (* output index -> steps written *)
  out_vals : Word.t array array;
  out_n : int array;
  mutable conflicts : (int * Phase.t * string) list;
  mutable st_contributions : int;
  mutable st_resolutions : int;
  mutable st_fu_evals : int;
  mutable st_latches : int;
}

let model t = t.sched.Sched.model
let cycles t = t.cycles

let blockers ~(inject : Inject.t) ~(config : Simulate.config) =
  let b = ref [] in
  let add why = b := why :: !b in
  if inject.Inject.oscillators <> [] then
    add
      "an injected oscillator never settles, so no static schedule \
       exists";
  if
    List.exists
      (fun (sb : Inject.saboteur) -> Phase.equal sb.Inject.sab_phase Phase.Cr)
      inject.Inject.saboteurs
  then
    add
      "a spurious driver contributing during cr releases into the next \
       control step, off the static schedule";
  (match config.Simulate.on_illegal with
   | Simulate.Record -> ()
   | Simulate.Halt ->
     add "the Halt conflict policy stops mid-schedule; use the kernel"
   | Simulate.Degrade ->
     add "the Degrade conflict policy is not static; use the kernel");
  List.rev !b

let compilable ?(inject = Inject.none) ?(config = Simulate.default)
    (_ : Model.t) =
  match blockers ~inject ~config with
  | [] -> Ok ()
  | bs -> Error (String.concat "; " bs)

let of_sched (sched : Sched.t) =
  let m = sched.Sched.model in
  let inject = sched.Sched.inject in
  let nsinks = sched.Sched.nsinks in
  let nregs = sched.Sched.nregs in
  let n1 = max nsinks 1 in
  let fu_states =
    Array.map (fun (p : Sched.fu_plan) -> Fu_state.create p.Sched.fu)
      sched.Sched.fu_plans
  in
  { sched;
    cycles = Simulate.expected_cycles_injected ~inject m 0;
    fu_states;
    visible = Array.make n1 Word.disc;
    regs = Array.make (max nregs 1) Word.disc;
    reg_vis = Array.make (max nregs 1) Word.disc;
    fu_out = Array.make (max (Array.length fu_states) 1) Word.disc;
    acc = Array.make n1 Word.disc; in_pending = Array.make n1 false;
    pend_ids = Array.make n1 0; pend_n = 0; live_ids = Array.make n1 0;
    live_n = 0;
    traces =
      Array.init (max nregs 1) (fun _ -> Array.make m.cs_max Word.disc);
    out_steps =
      Array.init
        (max (List.length m.outputs) 1)
        (fun _ -> Array.make m.cs_max 0);
    out_vals =
      Array.init
        (max (List.length m.outputs) 1)
        (fun _ -> Array.make m.cs_max Word.disc);
    out_n = Array.make (max (List.length m.outputs) 1) 0;
    conflicts = []; st_contributions = 0; st_resolutions = 0;
    st_fu_evals = 0; st_latches = 0 }

let of_model ?(inject = Inject.none) (m : Model.t) =
  Model.validate_exn m;
  of_sched (Sched.compile ~inject m)

let reset t =
  Array.fill t.visible 0 (Array.length t.visible) Word.disc;
  Array.fill t.acc 0 (Array.length t.acc) Word.disc;
  Array.fill t.in_pending 0 (Array.length t.in_pending) false;
  t.pend_n <- 0;
  t.live_n <- 0;
  Array.blit t.sched.Sched.reg_init 0 t.regs 0 t.sched.Sched.nregs;
  for r = 0 to t.sched.Sched.nregs - 1 do
    t.reg_vis.(r) <- Sched.reg_view_init t.sched r
  done;
  Array.iter Fu_state.reset t.fu_states;
  Array.fill t.fu_out 0 (Array.length t.fu_out) Word.disc;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) Word.disc) t.traces;
  Array.fill t.out_n 0 (Array.length t.out_n) 0;
  t.conflicts <- [];
  t.st_contributions <- 0;
  t.st_resolutions <- 0;
  t.st_fu_evals <- 0;
  t.st_latches <- 0

let[@inline] contribute t s v =
  t.st_contributions <- t.st_contributions + 1;
  if t.in_pending.(s) then t.acc.(s) <- Resolve.combine t.acc.(s) v
  else begin
    t.in_pending.(s) <- true;
    t.acc.(s) <- v;
    t.pend_ids.(t.pend_n) <- s;
    t.pend_n <- t.pend_n + 1
  end

(* Resolve last phase's contributions into this phase's visible values:
   live sinks not re-contributed release to DISC, pending sinks take
   their accumulated resolution, and a sink newly becoming ILLEGAL is
   localized as a conflict — the same two re-resolution cases as
   [Interp.flip_phase], over a swap of preallocated id arrays.  Each
   re-resolution passes through the sink's tamper, if any; sinks with
   no transaction keep their previous — possibly tampered — value. *)
let flip t ~step ~phase =
  for i = 0 to t.live_n - 1 do
    let s = t.live_ids.(i) in
    if not t.in_pending.(s) then begin
      let v = Sched.resolve_release t.sched s ~step ~phase in
      if Word.is_illegal v && not (Word.is_illegal t.visible.(s)) then
        t.conflicts <- (step, phase, t.sched.Sched.sink_name.(s)) :: t.conflicts;
      t.visible.(s) <- v;
      t.st_resolutions <- t.st_resolutions + 1
    end
  done;
  for i = 0 to t.pend_n - 1 do
    let s = t.pend_ids.(i) in
    let v = Sched.resolve_value t.sched s ~step ~phase t.acc.(s) in
    if Word.is_illegal v && not (Word.is_illegal t.visible.(s)) then
      t.conflicts <- (step, phase, t.sched.Sched.sink_name.(s)) :: t.conflicts;
    t.visible.(s) <- v;
    t.st_resolutions <- t.st_resolutions + 1
  done;
  let freed = t.live_ids in
  t.live_ids <- t.pend_ids;
  t.live_n <- t.pend_n;
  t.pend_ids <- freed;
  t.pend_n <- 0;
  for i = 0 to t.live_n - 1 do
    let s = t.live_ids.(i) in
    t.in_pending.(s) <- false;
    t.acc.(s) <- Word.disc
  done

let exec_step t step =
  let cm = Phase.to_int Phase.Cm and cr = Phase.to_int Phase.Cr in
  begin
    for pi = 0 to Phase.count - 1 do
      let phase = Phase.of_int_exn pi in
      flip t ~step ~phase;
      let acts = Sched.slot t.sched (((step - 1) * Phase.count) + pi) in
      for a = 0 to Array.length acts - 1 do
        let { Sched.src; dst } = acts.(a) in
        let v =
          match src with
          | Sched.Const w -> w
          | Sched.Reg r -> t.reg_vis.(r)
          | Sched.Bus s -> t.visible.(s)
          | Sched.Fu f -> t.fu_out.(f)
        in
        contribute t dst v
      done;
      if pi = cm then
        for f = 0 to Array.length t.fu_states - 1 do
          let u = t.sched.Sched.fu_plans.(f) in
          t.fu_out.(f) <-
            Fu_state.step t.fu_states.(f)
              ~op_index:t.visible.(u.Sched.op_sink)
              t.visible.(u.Sched.in1_sink) t.visible.(u.Sched.in2_sink);
          t.st_fu_evals <- t.st_fu_evals + 1
        done
      else if pi = cr then begin
        for r = 0 to t.sched.Sched.nregs - 1 do
          let v = t.visible.(t.sched.Sched.reg_in_sink.(r)) in
          if not (Word.is_disc v) then begin
            t.regs.(r) <- v;
            t.reg_vis.(r) <- Sched.reg_view_latch t.sched r ~step v;
            t.st_latches <- t.st_latches + 1
          end
        done;
        for o = 0 to Array.length t.sched.Sched.out_sink - 1 do
          let v = t.visible.(t.sched.Sched.out_sink.(o)) in
          if not (Word.is_disc v) then begin
            let n = t.out_n.(o) in
            t.out_steps.(o).(n) <- step;
            t.out_vals.(o).(n) <- v;
            t.out_n.(o) <- n + 1
          end
        done;
        for r = 0 to t.sched.Sched.nregs - 1 do
          t.traces.(r).(step - 1) <- t.reg_vis.(r)
        done
      end
    done
  end

let observation t =
  let m = model t in
  { Observation.model_name = m.Model.name; cs_max = m.Model.cs_max;
    regs =
      List.mapi
        (fun i (r : Model.register) -> (r.reg_name, Array.copy t.traces.(i)))
        m.Model.registers;
    outputs =
      List.mapi
        (fun o name ->
          ( name,
            List.init t.out_n.(o) (fun k ->
                (t.out_steps.(o).(k), t.out_vals.(o).(k))) ))
        m.Model.outputs;
    conflicts = List.rev t.conflicts }

let run t =
  reset t;
  for step = 1 to (model t).Model.cs_max do
    exec_step t step
  done;
  observation t

(* ---- control-step snapshots ------------------------------------- *)

(* The per-port write arrays, re-serialized as the single
   chronological list {!Interp} accumulates: per step, ports in
   declaration order. *)
let out_writes_upto t ~step =
  let m = model t in
  let nports = List.length m.Model.outputs in
  let cursor = Array.make (max nports 1) 0 in
  let acc = ref [] in
  for s = 1 to step do
    List.iteri
      (fun o name ->
        let k = cursor.(o) in
        if k < t.out_n.(o) && t.out_steps.(o).(k) = s then begin
          acc := (name, (s, t.out_vals.(o).(k))) :: !acc;
          cursor.(o) <- k + 1
        end)
      m.Model.outputs
  done;
  List.rev !acc

let capture t ~digest ~step =
  let m = model t in
  { Snapshot.model_name = m.Model.name;
    digest;
    step;
    regs =
      List.mapi
        (fun i (r : Model.register) -> (r.reg_name, t.regs.(i)))
        m.Model.registers;
    fu_out =
      List.mapi (fun i (f : Model.fu) -> (f.fu_name, t.fu_out.(i)))
        m.Model.fus;
    fu_slots =
      List.mapi
        (fun i (f : Model.fu) -> (f.fu_name, Fu_state.slots t.fu_states.(i)))
        m.Model.fus;
    trace =
      List.mapi
        (fun i (r : Model.register) ->
          (r.reg_name, Array.sub t.traces.(i) 0 step))
        m.Model.registers;
    out_writes = out_writes_upto t ~step;
    conflicts = Snapshot.sort_conflicts t.conflicts }

let snapshots_at t ~steps =
  let m = model t in
  List.iter
    (fun s ->
      if s < 0 || s > m.Model.cs_max then
        invalid_arg
          (Printf.sprintf "Compiled.snapshots_at: step %d outside [0, %d]" s
             m.Model.cs_max))
    steps;
  let want = List.sort_uniq compare steps in
  let digest = Snapshot.digest_of_model m in
  reset t;
  let snaps = ref [] in
  if List.mem 0 want then snaps := capture t ~digest ~step:0 :: !snaps;
  for step = 1 to m.Model.cs_max do
    exec_step t step;
    if List.mem step want then snaps := capture t ~digest ~step :: !snaps
  done;
  List.rev !snaps

let snapshot_at t ~step =
  match snapshots_at t ~steps:[ step ] with
  | [ s ] -> s
  | _ -> assert false

let resume t ~(from : Snapshot.t) =
  let m = model t in
  Snapshot.validate_exn m from;
  reset t;
  List.iteri (fun i (_, v) -> t.regs.(i) <- v) from.regs;
  for r = 0 to t.sched.Sched.nregs - 1 do
    (* same rule as a latch in the uninterrupted run: the tampered
       output view re-resolves from the current register value *)
    t.reg_vis.(r) <-
      Sched.reg_view_resume t.sched r ~boundary:from.step t.regs.(r)
  done;
  List.iteri (fun i (_, v) -> t.fu_out.(i) <- v) from.fu_out;
  List.iteri
    (fun i (_, slots) -> Fu_state.restore t.fu_states.(i) slots)
    from.fu_slots;
  List.iteri
    (fun i (_, a) -> Array.blit a 0 t.traces.(i) 0 (Array.length a))
    from.trace;
  List.iter
    (fun (name, (s, v)) ->
      List.iteri
        (fun o n ->
          if n = name then begin
            let k = t.out_n.(o) in
            t.out_steps.(o).(k) <- s;
            t.out_vals.(o).(k) <- v;
            t.out_n.(o) <- k + 1
          end)
        m.Model.outputs)
    from.out_writes;
  t.conflicts <- List.rev from.conflicts;
  for step = from.step + 1 to m.Model.cs_max do
    exec_step t step
  done;
  observation t

let last_stats t =
  { static_actions = t.sched.Sched.static_actions;
    contributions = t.st_contributions;
    resolutions = t.st_resolutions; fu_evals = t.st_fu_evals;
    latches = t.st_latches }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v>schedule actions : %d@,contributions    : %d@,resolutions      \
     : %d@,unit evaluations : %d@,register latches : %d@]"
    s.static_actions s.contributions s.resolutions s.fu_evals s.latches
