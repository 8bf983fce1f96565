//! # pdo-xwin — an X Windows-model GUI event substrate
//!
//! The paper's third evaluation target is X clients (§2.3, §4.3): `xterm`'s
//! menu **Popup** (Ctrl + mouse button → two Athena action handlers, the
//! second invoking two mouse-motion callbacks) and `gvim`'s scrollbar
//! **Scroll** (two action handlers moving and displaying the thumb, each
//! invoking widget callbacks).
//!
//! X's three handler mechanisms all map onto the general model (§2.3):
//!
//! * **event handlers** — procedures bound to event names: here, handlers
//!   bound to the X protocol events (`ButtonPress`, `MotionNotify`, …);
//! * **action procedures** — an extra level of indirection: a *translation*
//!   handler maps the X event to an action event (`ActionPopup`,
//!   `ActionScroll`) whose own handlers are the action procedures;
//! * **callback functions** — lists bound to a callback name: callback
//!   events (`PopupMotionCallback`, `ThumbCallback`, `PositionCallback`)
//!   with one binding per registered callback.
//!
//! [`x_client_program`] builds a client with both workloads; [`XClient`]
//! drives it. Widget state (menus, scrollbar geometry) lives behind
//! natives, like Xlib calls under the toolkit.
//!
//! ```
//! use pdo_xwin::{x_client_program, XClient};
//!
//! let program = x_client_program();
//! let mut client = XClient::new(&program)?;
//! client.popup(100, 120)?;
//! client.scroll(42)?;
//! assert_eq!(client.state().menus_placed, 1);
//! assert_eq!(client.state().thumb_draws, 1);
//! # Ok::<(), pdo_xwin::XError>(())
//! ```

use pdo_cactus::EventProgram;
use pdo_events::wire::{FaultyWire, WireFaults, WireStats};
use pdo_events::{Runtime, RuntimeError};
use pdo_ir::{BinOp, EventId, FunctionBuilder, Module, RaiseMode, Value};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The 14 core X protocol events this client understands (Xlib defines 33;
/// these are the ones the workloads exercise or queue).
pub const X_EVENTS: [&str; 14] = [
    "ButtonPress",
    "ButtonRelease",
    "KeyPress",
    "KeyRelease",
    "MotionNotify",
    "EnterNotify",
    "LeaveNotify",
    "FocusIn",
    "FocusOut",
    "Expose",
    "ConfigureNotify",
    "MapNotify",
    "UnmapNotify",
    "ClientMessage",
];

/// The Ctrl modifier bit in `ButtonPress` arguments.
pub const MOD_CTRL: i64 = 0b100;

/// X client failure.
#[derive(Debug)]
pub enum XError {
    /// The event runtime failed.
    Runtime(RuntimeError),
    /// The program lacks an expected symbol.
    MissingSymbol(String),
}

impl fmt::Display for XError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XError::Runtime(e) => write!(f, "runtime error: {e}"),
            XError::MissingSymbol(s) => write!(f, "missing symbol `{s}`"),
        }
    }
}

impl std::error::Error for XError {}

impl From<RuntimeError> for XError {
    fn from(e: RuntimeError) -> Self {
        XError::Runtime(e)
    }
}

/// Observable widget-side effects (the "display").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XState {
    /// SimpleMenu widgets created.
    pub menus_created: u64,
    /// Menus placed on screen.
    pub menus_placed: u64,
    /// Mouse-motion callback activations observed.
    pub motion_tracks: u64,
    /// Scrollbar thumb coordinate queries.
    pub thumb_queries: u64,
    /// Thumb redraws on screen.
    pub thumb_draws: u64,
    /// Position callbacks observed.
    pub position_updates: u64,
    /// Last thumb position drawn.
    pub last_thumb_pos: i64,
}

/// Builds the X client program: X events, translations, the Popup and
/// Scroll action handlers, and their callbacks.
pub fn x_client_program() -> EventProgram {
    let mut m = Module::new();
    for name in X_EVENTS {
        m.add_event(name);
    }
    let button_press = m.event_by_name("ButtonPress").expect("declared");
    let motion_notify = m.event_by_name("MotionNotify").expect("declared");

    // Action and callback "names" — the extra indirection layers.
    let action_popup = m.add_event("ActionPopup");
    let action_scroll = m.add_event("ActionScroll");
    let popup_motion_cb = m.add_event("PopupMotionCallback");
    let thumb_cb = m.add_event("ThumbCallback");
    let position_cb = m.add_event("PositionCallback");

    let g_menu = m.add_global("menu_id", Value::Int(0));
    let g_thumb = m.add_global("thumb_pos", Value::Int(0));
    let g_track_acc = m.add_global("track_acc", Value::Int(0));

    let n_menu_create = m.add_native("menu_create");
    let n_menu_configure = m.add_native("menu_configure");
    let n_menu_place = m.add_native("menu_place");
    let n_track_motion = m.add_native("track_motion");
    let n_thumb_coords = m.add_native("thumb_coords");
    let n_draw_thumb = m.add_native("draw_thumb");
    let n_position_update = m.add_native("position_update");

    let mut bindings = Vec::new();

    // Translation: ButtonPress + Ctrl → ActionPopup (xterm's
    // `Ctrl<Btn1Down>: popup-menu()` translation).
    {
        let mut f = FunctionBuilder::new("xlate_button_press", 3); // x, y, mods
        let fire = f.new_block();
        let skip = f.new_block();
        let ctrl = f.const_int(MOD_CTRL);
        let masked = f.bin(BinOp::BitAnd, f.param(2), ctrl);
        let zero = f.const_int(0);
        let is_ctrl = f.bin(BinOp::Ne, masked, zero);
        f.branch(is_ctrl, fire, skip);
        f.switch_to(fire);
        f.raise(action_popup, RaiseMode::Sync, &[f.param(0), f.param(1)]);
        f.ret(None);
        f.switch_to(skip);
        f.ret(None);
        bindings.push((button_press, m.add_function(f.finish()), 0));
    }

    // Translation: MotionNotify on the scrollbar widget → ActionScroll.
    {
        let mut f = FunctionBuilder::new("xlate_motion", 2); // widget, y
        f.raise(action_scroll, RaiseMode::Sync, &[f.param(1)]);
        f.ret(None);
        bindings.push((motion_notify, m.add_function(f.finish()), 0));
    }

    // Popup action handler 1: initialize the SimpleMenu widget.
    {
        let mut f = FunctionBuilder::new("action_init_menu", 2); // x, y
        let menu = f.call_native(n_menu_create, &[]);
        f.lock(g_menu);
        f.store_global(g_menu, menu);
        f.unlock(g_menu);
        let _ = f.call_native(n_menu_configure, &[menu, f.param(0), f.param(1)]);
        f.ret(None);
        bindings.push((action_popup, m.add_function(f.finish()), 0));
    }
    // Popup action handler 2: construct and display the menu; the display
    // step fires the mouse-motion callback list (two callbacks).
    {
        let mut f = FunctionBuilder::new("action_show_menu", 2);
        f.lock(g_menu);
        let menu = f.load_global(g_menu);
        f.unlock(g_menu);
        let _ = f.call_native(n_menu_place, &[menu, f.param(0), f.param(1)]);
        f.raise(popup_motion_cb, RaiseMode::Sync, &[f.param(0), f.param(1)]);
        f.ret(None);
        bindings.push((action_popup, m.add_function(f.finish()), 1));
    }
    // The two registered motion callbacks.
    for (i, name) in ["popup_track_cb1", "popup_track_cb2"]
        .into_iter()
        .enumerate()
    {
        let mut f = FunctionBuilder::new(name, 2);
        let t = f.call_native(n_track_motion, &[f.param(0), f.param(1)]);
        f.lock(g_track_acc);
        let acc = f.load_global(g_track_acc);
        let sum = f.bin(BinOp::Add, acc, t);
        f.store_global(g_track_acc, sum);
        f.unlock(g_track_acc);
        f.ret(None);
        bindings.push((popup_motion_cb, m.add_function(f.finish()), i as i32));
    }

    // Scroll action handler 1: fetch thumb coordinates from the framework
    // and stash them; fires the thumb callback.
    {
        let mut f = FunctionBuilder::new("action_move_thumb", 1); // y
        let coords = f.call_native(n_thumb_coords, &[f.param(0)]);
        f.lock(g_thumb);
        f.store_global(g_thumb, coords);
        f.unlock(g_thumb);
        f.raise(thumb_cb, RaiseMode::Sync, &[coords]);
        f.ret(None);
        bindings.push((action_scroll, m.add_function(f.finish()), 0));
    }
    // Scroll action handler 2: display the new position; fires the
    // position callback.
    {
        let mut f = FunctionBuilder::new("action_update_position", 1);
        f.lock(g_thumb);
        let pos = f.load_global(g_thumb);
        f.unlock(g_thumb);
        let _ = f.call_native(n_draw_thumb, &[pos]);
        f.raise(position_cb, RaiseMode::Sync, &[pos]);
        f.ret(None);
        bindings.push((action_scroll, m.add_function(f.finish()), 1));
    }
    // Widget callbacks for the scroll path.
    {
        let mut f = FunctionBuilder::new("thumb_widget_cb", 1);
        let _ = f.call_native(n_track_motion, &[f.param(0), f.param(0)]);
        f.ret(None);
        bindings.push((thumb_cb, m.add_function(f.finish()), 0));
    }
    {
        let mut f = FunctionBuilder::new("position_widget_cb", 1);
        let _ = f.call_native(n_position_update, &[f.param(0)]);
        f.ret(None);
        bindings.push((position_cb, m.add_function(f.finish()), 0));
    }

    EventProgram {
        module: m.into(),
        bindings,
    }
}

/// A runnable X client.
pub struct XClient {
    rt: Runtime,
    state: Rc<RefCell<XState>>,
    button_press: EventId,
    motion_notify: EventId,
}

impl fmt::Debug for XClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XClient").field("rt", &self.rt).finish()
    }
}

impl XClient {
    /// Builds a client for `program` (plain or optimizer-extended).
    ///
    /// # Errors
    ///
    /// Fails when the program lacks the X symbols or binding fails.
    pub fn new(program: &EventProgram) -> Result<XClient, XError> {
        let mut rt = program.runtime()?;
        let state = Rc::new(RefCell::new(XState::default()));
        install_natives(&mut rt, &state)?;
        let ev = |name: &str| {
            program
                .module
                .event_by_name(name)
                .ok_or_else(|| XError::MissingSymbol(name.to_string()))
        };
        Ok(XClient {
            button_press: ev("ButtonPress")?,
            motion_notify: ev("MotionNotify")?,
            rt,
            state,
        })
    }

    /// Delivers Ctrl+ButtonPress at `(x, y)` — the xterm Popup gesture.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn popup(&mut self, x: i64, y: i64) -> Result<(), XError> {
        self.rt.raise(
            self.button_press,
            RaiseMode::Sync,
            &[Value::Int(x), Value::Int(y), Value::Int(MOD_CTRL)],
        )?;
        Ok(())
    }

    /// Delivers a plain (un-modified) button press; translations ignore it.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn plain_click(&mut self, x: i64, y: i64) -> Result<(), XError> {
        self.rt.raise(
            self.button_press,
            RaiseMode::Sync,
            &[Value::Int(x), Value::Int(y), Value::Int(0)],
        )?;
        Ok(())
    }

    /// Delivers scrollbar motion at `y` — the gvim Scroll gesture.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn scroll(&mut self, y: i64) -> Result<(), XError> {
        self.rt.raise(
            self.motion_notify,
            RaiseMode::Sync,
            &[Value::Int(1), Value::Int(y)],
        )?;
        Ok(())
    }

    /// Queues an event asynchronously (X clients queue server events) and
    /// processes the queue.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn queue_scroll_and_pump(&mut self, y: i64) -> Result<(), XError> {
        self.rt.raise(
            self.motion_notify,
            RaiseMode::Async,
            &[Value::Int(1), Value::Int(y)],
        )?;
        self.rt.run_until_idle()?;
        Ok(())
    }

    /// Delivers a wire-level X event (see [`XEvent`]) to the client's
    /// dispatch loop, as the gesture helpers above do internally.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn deliver(&mut self, ev: &XEvent) -> Result<(), XError> {
        self.rt.raise(ev.event, RaiseMode::Sync, &ev.args)?;
        Ok(())
    }

    /// The current display state.
    pub fn state(&self) -> XState {
        *self.state.borrow()
    }

    /// The underlying runtime (tracing, cost counters, chains).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Read-only runtime access.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }
}

/// One X protocol event as it crosses the server→client connection: the
/// event code plus its arguments, ready for [`XClient::deliver`].
#[derive(Debug, Clone, PartialEq)]
pub struct XEvent {
    /// The X event (one of [`X_EVENTS`] or the action/callback events).
    pub event: EventId,
    /// The event's arguments, e.g. `(x, y, mods)` for `ButtonPress`.
    pub args: Vec<Value>,
}

/// Garbles an event in flight: the last integer argument is the one the
/// translations dispatch on (`mods` for `ButtonPress`, `y` for
/// `MotionNotify`), so a corrupted event stays well-formed but can take a
/// different path through the client — exactly the hazard the conformance
/// oracle must show optimized clients handle identically.
fn corrupt_event(ev: &mut XEvent) {
    for arg in ev.args.iter_mut().rev() {
        if let Value::Int(i) = arg {
            *i ^= 0x55;
            return;
        }
    }
}

/// An [`XClient`] fed through a seeded faulty connection: X events can be
/// lost, duplicated, reordered, and corrupted between the "server" (the
/// gesture methods) and the client's dispatch loop.
pub struct FaultyXSession {
    client: XClient,
    wire: FaultyWire<XEvent>,
}

impl fmt::Debug for FaultyXSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyXSession")
            .field("client", &self.client)
            .field("wire", &self.wire.stats())
            .finish()
    }
}

impl FaultyXSession {
    /// Wraps `client` behind a connection with `faults`.
    pub fn new(client: XClient, faults: WireFaults) -> FaultyXSession {
        FaultyXSession {
            client,
            wire: FaultyWire::new(faults),
        }
    }

    /// Sends an X event across the faulty connection; every copy that
    /// arrives is dispatched by the client.
    ///
    /// # Errors
    ///
    /// Propagates handler faults from dispatched arrivals.
    pub fn deliver(&mut self, ev: XEvent) -> Result<(), XError> {
        let t = self.wire.transmit(ev, corrupt_event);
        for arrival in t.arrivals.into_iter().flatten() {
            self.client.deliver(&arrival.item)?;
        }
        Ok(())
    }

    /// Ctrl+ButtonPress at `(x, y)` across the faulty connection.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn popup(&mut self, x: i64, y: i64) -> Result<(), XError> {
        let event = self.client.button_press;
        self.deliver(XEvent {
            event,
            args: vec![Value::Int(x), Value::Int(y), Value::Int(MOD_CTRL)],
        })
    }

    /// Un-modified button press across the faulty connection.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn plain_click(&mut self, x: i64, y: i64) -> Result<(), XError> {
        let event = self.client.button_press;
        self.deliver(XEvent {
            event,
            args: vec![Value::Int(x), Value::Int(y), Value::Int(0)],
        })
    }

    /// Scrollbar motion at `y` across the faulty connection.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn scroll(&mut self, y: i64) -> Result<(), XError> {
        let event = self.client.motion_notify;
        self.deliver(XEvent {
            event,
            args: vec![Value::Int(1), Value::Int(y)],
        })
    }

    /// Dispatches an event the connection is still holding for reordering.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn settle(&mut self) -> Result<(), XError> {
        for arrival in self.wire.flush().into_iter().flatten() {
            self.client.deliver(&arrival.item)?;
        }
        Ok(())
    }

    /// Fault counters of the connection.
    pub fn wire_stats(&self) -> WireStats {
        self.wire.stats()
    }

    /// The wrapped client.
    pub fn client(&self) -> &XClient {
        &self.client
    }

    /// The wrapped client (chain installation, adaptation hooks).
    pub fn client_mut(&mut self) -> &mut XClient {
        &mut self.client
    }
}

fn install_natives(rt: &mut Runtime, state: &Rc<RefCell<XState>>) -> Result<(), XError> {
    let int_arg = |args: &[Value], i: usize| -> Result<i64, String> {
        args.get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| format!("expected int argument {i}"))
    };

    let s = Rc::clone(state);
    rt.bind_native_by_name("menu_create", move |_| {
        let mut st = s.borrow_mut();
        st.menus_created += 1;
        Ok(Value::Int(st.menus_created as i64))
    })
    .map_err(XError::Runtime)?;

    rt.bind_native_by_name("menu_configure", move |args| {
        let _ = int_arg(args, 0)?;
        Ok(Value::Unit)
    })
    .map_err(XError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("menu_place", move |args| {
        let _ = int_arg(args, 0)?;
        s.borrow_mut().menus_placed += 1;
        Ok(Value::Unit)
    })
    .map_err(XError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("track_motion", move |args| {
        let x = int_arg(args, 0)?;
        let y = int_arg(args, 1)?;
        s.borrow_mut().motion_tracks += 1;
        Ok(Value::Int(x + y))
    })
    .map_err(XError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("thumb_coords", move |args| {
        let y = int_arg(args, 0)?;
        s.borrow_mut().thumb_queries += 1;
        // The framework maps pointer y to a thumb position.
        Ok(Value::Int(y * 3 / 4))
    })
    .map_err(XError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("draw_thumb", move |args| {
        let pos = int_arg(args, 0)?;
        let mut st = s.borrow_mut();
        st.thumb_draws += 1;
        st.last_thumb_pos = pos;
        Ok(Value::Unit)
    })
    .map_err(XError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("position_update", move |args| {
        let _ = int_arg(args, 0)?;
        s.borrow_mut().position_updates += 1;
        Ok(Value::Unit)
    })
    .map_err(XError::Runtime)?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_events::TraceConfig;

    fn client() -> XClient {
        XClient::new(&x_client_program()).unwrap()
    }

    #[test]
    fn popup_runs_both_action_handlers_and_callbacks() {
        let mut c = client();
        c.popup(10, 20).unwrap();
        let st = c.state();
        assert_eq!(st.menus_created, 1);
        assert_eq!(st.menus_placed, 1);
        // Two registered motion callbacks ran.
        assert_eq!(st.motion_tracks, 2);
    }

    #[test]
    fn plain_click_does_not_popup() {
        let mut c = client();
        c.plain_click(10, 20).unwrap();
        let st = c.state();
        assert_eq!(st.menus_created, 0);
        assert_eq!(st.menus_placed, 0);
    }

    #[test]
    fn scroll_moves_and_draws_thumb() {
        let mut c = client();
        c.scroll(100).unwrap();
        let st = c.state();
        assert_eq!(st.thumb_queries, 1);
        assert_eq!(st.thumb_draws, 1);
        assert_eq!(st.last_thumb_pos, 75);
        assert_eq!(st.position_updates, 1);
        // ThumbCallback's widget callback also tracked motion once.
        assert_eq!(st.motion_tracks, 1);
    }

    #[test]
    fn queued_events_processed_on_pump() {
        let mut c = client();
        c.queue_scroll_and_pump(40).unwrap();
        assert_eq!(c.state().thumb_draws, 1);
        assert_eq!(c.state().last_thumb_pos, 30);
    }

    #[test]
    fn repeated_popups_accumulate() {
        let mut c = client();
        for i in 0..250 {
            c.popup(i, i + 1).unwrap();
        }
        let st = c.state();
        assert_eq!(st.menus_placed, 250);
        assert_eq!(st.motion_tracks, 500);
    }

    #[test]
    fn scroll_chain_visible_in_trace() {
        let mut c = client();
        c.runtime_mut().set_trace_config(TraceConfig::full());
        c.scroll(10).unwrap();
        let trace = c.runtime_mut().take_trace();
        // MotionNotify, ActionScroll, ThumbCallback, PositionCallback.
        assert_eq!(trace.raise_count(), 4);
    }

    #[test]
    fn all_x_events_declared() {
        let program = x_client_program();
        for name in X_EVENTS {
            assert!(program.module.event_by_name(name).is_some());
        }
    }

    #[test]
    fn faulty_session_with_perfect_wire_matches_direct_client() {
        let mut direct = client();
        let mut session = FaultyXSession::new(client(), WireFaults::default());
        for i in 0..10 {
            direct.popup(i, i + 1).unwrap();
            session.popup(i, i + 1).unwrap();
            direct.scroll(10 * i).unwrap();
            session.scroll(10 * i).unwrap();
        }
        session.settle().unwrap();
        assert_eq!(session.client().state(), direct.state());
        assert_eq!(session.wire_stats(), WireStats::default());
    }

    #[test]
    fn faulty_session_drops_lose_gestures() {
        let mut session = FaultyXSession::new(
            client(),
            WireFaults {
                drop_per_mille: 1000,
                seed: 5,
                ..WireFaults::default()
            },
        );
        for i in 0..8 {
            session.popup(i, i).unwrap();
        }
        assert_eq!(session.client().state(), XState::default());
        assert_eq!(session.wire_stats().dropped, 8);
    }

    #[test]
    fn corrupted_events_garble_dispatch_but_never_fault() {
        let mut session = FaultyXSession::new(
            client(),
            WireFaults {
                corrupt_per_mille: 1000,
                seed: 2,
                ..WireFaults::default()
            },
        );
        // Corruption flips the Ctrl bit out of `mods`: the popup gesture
        // arrives as a plain click and no menu appears.
        session.popup(10, 20).unwrap();
        assert_eq!(session.client().state().menus_created, 0);
        // Corruption garbles `y`: the thumb lands where the garbled
        // coordinate says (100 ^ 0x55 = 49 → 49 * 3 / 4 = 36).
        session.scroll(100).unwrap();
        assert_eq!(session.client().state().last_thumb_pos, 36);
        assert_eq!(session.wire_stats().corrupted, 2);
    }

    #[test]
    fn faulty_session_is_deterministic_per_seed() {
        let faults = WireFaults {
            drop_per_mille: 250,
            dup_per_mille: 250,
            reorder_per_mille: 250,
            corrupt_per_mille: 250,
            seed: 77,
        };
        let run = |faults: WireFaults| {
            let mut session = FaultyXSession::new(client(), faults);
            for i in 0..40 {
                session.popup(i, i + 2).unwrap();
                session.scroll(i * 7).unwrap();
            }
            session.settle().unwrap();
            (session.client().state(), session.wire_stats())
        };
        assert_eq!(run(faults), run(faults));
    }
}
