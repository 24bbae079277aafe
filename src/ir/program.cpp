#include "ir/program.h"

#include <set>

#include "support/diagnostics.h"

namespace wj {

Program::Program(std::vector<std::unique_ptr<ClassDecl>> classes) {
    for (auto& c : classes) {
        if (!c) throw UsageError("null class declaration");
        const std::string name = c->name;
        const ClassDecl* raw = c.get();
        auto [it, inserted] = byName_.emplace(name, std::move(c));
        if (!inserted) throw UsageError("duplicate class: " + name);
        order_.push_back(raw);
    }
    // Every name each class is a subtype of. The walk keeps a visited set,
    // so an inheritance cycle (which validate() rejects afterwards) ends.
    for (const ClassDecl* c : order_) {
        if (!c->superName.empty() && c->superName != c->name) extended_.insert(c->superName);
        for (const auto& itf : c->interfaces) {
            if (itf != c->name) extended_.insert(itf);
        }
        if (c->isInterface) continue;
        std::set<std::string> ancestors;
        std::vector<std::string> work{c->name};
        while (!work.empty()) {
            std::string n = std::move(work.back());
            work.pop_back();
            if (!ancestors.insert(n).second) continue;
            subtypes_[n].push_back(c);
            const ClassDecl* a = cls(n);
            if (!a) continue;
            if (!a->superName.empty()) work.push_back(a->superName);
            for (const auto& itf : a->interfaces) work.push_back(itf);
        }
    }
}

const ClassDecl* Program::cls(const std::string& name) const noexcept {
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second.get();
}

const ClassDecl& Program::require(const std::string& name) const {
    const ClassDecl* c = cls(name);
    if (!c) throw UsageError("unknown class: " + name);
    return *c;
}

bool Program::isSubtypeOf(const std::string& name, const std::string& ancestor) const {
    if (name == ancestor) return true;
    const ClassDecl* c = cls(name);
    if (!c) return false;
    if (!c->superName.empty() && isSubtypeOf(c->superName, ancestor)) return true;
    for (const auto& itf : c->interfaces) {
        if (isSubtypeOf(itf, ancestor)) return true;
    }
    return false;
}

bool Program::assignable(const Type& to, const Type& from) const {
    if (to == from) return true;
    if (to.isClass() && from.isClass()) {
        return isSubtypeOf(from.className(), to.className());
    }
    return false;
}

const std::vector<const ClassDecl*>& Program::concreteSubtypes(const std::string& name) const {
    static const std::vector<const ClassDecl*> kNone;
    auto it = subtypes_.find(name);
    return it == subtypes_.end() ? kNone : it->second;
}

const Method* Program::resolveMethod(const std::string& clsName, const std::string& method) const {
    const ClassDecl* owner = methodOwner(clsName, method);
    return owner ? owner->ownMethod(method) : nullptr;
}

const ClassDecl* Program::methodOwner(const std::string& clsName, const std::string& method) const {
    for (const ClassDecl* c = cls(clsName); c; c = c->superName.empty() ? nullptr : cls(c->superName)) {
        if (c->ownMethod(method)) return c;
    }
    // Interfaces: abstract declarations only; still useful to type-check
    // calls through interface-typed values.
    const ClassDecl* c = cls(clsName);
    if (c) {
        for (const auto& itf : c->interfaces) {
            if (const ClassDecl* o = methodOwner(itf, method)) return o;
        }
        if (!c->superName.empty()) {
            // superclass interfaces
            if (const ClassDecl* o = methodOwner(c->superName, method)) return o;
        }
    }
    return nullptr;
}

const Field* Program::resolveField(const std::string& clsName, const std::string& field) const {
    for (const ClassDecl* c = cls(clsName); c; c = c->superName.empty() ? nullptr : cls(c->superName)) {
        if (const Field* f = c->ownField(field)) return f;
    }
    return nullptr;
}

std::vector<const Field*> Program::allFields(const std::string& clsName) const {
    std::vector<const Field*> out;
    const ClassDecl* c = cls(clsName);
    if (!c) return out;
    if (!c->superName.empty()) out = allFields(c->superName);
    for (const auto& f : c->fields) out.push_back(&f);
    return out;
}

const StaticField* Program::resolveStatic(const std::string& clsName, const std::string& field) const {
    for (const ClassDecl* c = cls(clsName); c; c = c->superName.empty() ? nullptr : cls(c->superName)) {
        if (const StaticField* f = c->ownStatic(field)) return f;
    }
    return nullptr;
}

void Program::checkTypeKnown(const Type& t, const std::string& where) const {
    if (t.isArray()) {
        checkTypeKnown(t.elem(), where);
    } else if (t.isClass() && !cls(t.className())) {
        throw UsageError(where + ": references unknown class " + t.className());
    }
}

void Program::validate() const {
    for (const ClassDecl* c : order_) {
        // Super chain exists and is acyclic.
        std::set<std::string> seen{c->name};
        for (const ClassDecl* s = c; !s->superName.empty();) {
            const ClassDecl* sup = cls(s->superName);
            if (!sup) throw UsageError(c->name + ": unknown superclass " + s->superName);
            if (sup->isInterface) throw UsageError(c->name + ": extends interface " + sup->name);
            if (!seen.insert(sup->name).second) {
                throw UsageError(c->name + ": inheritance cycle through " + sup->name);
            }
            s = sup;
        }
        for (const auto& itf : c->interfaces) {
            const ClassDecl* i = cls(itf);
            if (!i) throw UsageError(c->name + ": unknown interface " + itf);
            if (!i->isInterface) throw UsageError(c->name + ": implements non-interface " + itf);
        }
        if (c->isInterface) {
            if (!c->fields.empty()) throw UsageError(c->name + ": interface with instance fields");
            if (c->ctor) throw UsageError(c->name + ": interface with constructor");
            for (const auto& m : c->methods) {
                if (!m->isAbstract) throw UsageError(c->name + "." + m->name + ": interface method with body");
            }
        }
        for (const auto& f : c->fields) checkTypeKnown(f.type, c->name + "." + f.name);
        for (const auto& m : c->methods) {
            checkTypeKnown(m->ret, c->name + "." + m->name);
            for (const auto& p : m->params) checkTypeKnown(p.type, c->name + "." + m->name);
            if (m->isGlobal) {
                if (m->params.empty() || m->params[0].type != Type::cls(cudaConfigClass())) {
                    throw UsageError(c->name + "." + m->name +
                                     ": @Global method must take CudaConfig as its first parameter");
                }
                if (!m->ret.isVoid()) {
                    throw UsageError(c->name + "." + m->name + ": @Global method must return void");
                }
            }
        }
        if (c->ctor) {
            for (const auto& p : c->ctor->params) checkTypeKnown(p.type, c->name + ".<init>");
        }
        // Concrete classes implement every abstract method visible to them.
        // A class declaring any abstract method of its own is itself abstract
        // and exempt (it cannot be instantiated).
        bool isAbstractClass = false;
        for (const auto& m : c->methods) {
            if (m->isAbstract) isAbstractClass = true;
        }
        if (!c->isInterface && !isAbstractClass) {
            std::vector<const ClassDecl*> sources;
            // Gather all transitive interfaces and abstract supers.
            std::vector<std::string> work = c->interfaces;
            for (const ClassDecl* s = c; !s->superName.empty();) {
                s = cls(s->superName);
                sources.push_back(s);
                for (const auto& i : s->interfaces) work.push_back(i);
            }
            std::set<std::string> visited;
            while (!work.empty()) {
                std::string n = work.back();
                work.pop_back();
                if (!visited.insert(n).second) continue;
                const ClassDecl* i = cls(n);
                if (!i) continue;  // already reported above
                sources.push_back(i);
                for (const auto& sup : i->interfaces) work.push_back(sup);
            }
            for (const ClassDecl* src : sources) {
                for (const auto& m : src->methods) {
                    if (!m->isAbstract) continue;
                    const Method* impl = resolveMethod(c->name, m->name);
                    if (!impl || impl->isAbstract) {
                        throw UsageError(c->name + ": does not implement abstract method " +
                                         src->name + "." + m->name);
                    }
                    if (impl->params.size() != m->params.size()) {
                        throw UsageError(c->name + "." + m->name +
                                         ": parameter count differs from overridden declaration");
                    }
                }
            }
        }
    }
}

} // namespace wj
